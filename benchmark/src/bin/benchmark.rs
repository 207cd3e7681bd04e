//! The benchmark's command: untraced runs with the system allocator,
//! and the parent of every measured child. See `README.md`.

fn main() {
    std::process::exit(msgorder_benchmark::harness::main(false));
}
