//! The `msgorder` command-line tool.
//!
//! ```text
//! msgorder classify "forbid x, y: x.s < y.s & y.r < x.r"
//! msgorder catalog
//! msgorder witness "forbid x, y: x.s < y.r & y.s < x.r"
//! msgorder dot "forbid x, y: x.s < y.s & y.r < x.r" | dot -Tsvg > graph.svg
//! msgorder simulate --protocol causal-rst --processes 4 --messages 30 --seed 7
//! msgorder simulate --protocol synthesized --spec "forbid x, y: x.s < y.s & y.r < x.r"
//! msgorder simulate --protocol async --spec fifo --online
//! ```
//!
//! One module per subcommand family, all parsing through [`args`] (the
//! argument cursor and the shared flag groups): [`analyze`] (`classify`
//! `explain` `file` `catalog` `witness` `dot`), [`simulate`], [`explore`],
//! [`traces`] (`replay` `shrink` `chaos`), [`live`] (`serve` `client`),
//! [`soak`], and [`usage`] (`help`). DESIGN.md §10 has the map.

mod analyze;
mod args;
mod explore;
mod live;
mod simulate;
mod soak;
mod traces;
mod usage;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("classify") => analyze::classify(rest),
        Some("explain") => analyze::explain(rest),
        Some("file") => analyze::file(rest),
        Some("catalog") => analyze::catalog(),
        Some("witness") => analyze::witness(rest),
        Some("dot") => analyze::dot(rest),
        Some("simulate") => simulate::run(rest),
        Some("explore") => explore::run(rest),
        Some("replay") => traces::replay(rest),
        Some("shrink") => traces::shrink(rest),
        Some("chaos") => traces::chaos(rest),
        Some("serve") => live::serve(rest),
        Some("client") => live::client(rest),
        Some("soak") => soak::run(rest),
        Some("help") | None => {
            usage::print();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `msgorder help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
