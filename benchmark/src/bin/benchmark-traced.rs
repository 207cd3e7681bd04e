//! The traced run's child: the same code with the counting allocator
//! installed, so spans carry exact allocator-call counts. Started by
//! `benchmark --trace 1`; end-to-end metrics never come from here.

#[global_allocator]
static ALLOC: msgorder_testkit::CountingAlloc = msgorder_testkit::CountingAlloc;

fn main() {
    std::process::exit(msgorder_benchmark::harness::main(true));
}
