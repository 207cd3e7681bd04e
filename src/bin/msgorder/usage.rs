//! `msgorder help`: every subcommand and every flag the parsers accept
//! (`tests/cli.rs` holds the two in step).

pub fn print() {
    println!(
        "msgorder — message ordering specifications and protocols (Murty & Garg, ICDCS 1997)

USAGE:
  msgorder classify \"<predicate>\"        classify a forbidden predicate
  msgorder explain  \"<predicate>\"        classification + the full argument
  msgorder file <path>                     classify every spec in a spec file
  msgorder catalog                         the paper's decision table
  msgorder witness \"<predicate>\"         print verified separation witnesses
  msgorder dot \"<predicate>\"             Graphviz of the predicate graph
  msgorder simulate [options]              run a protocol on a random workload
      --protocol  async|fifo|causal-rst|causal-ses|flush|sync|sync-batched|synthesized
      --spec      \"<predicate>\"  (required for synthesized; otherwise used to verify)
      --processes N   (default 4)
      --messages  N   (default 30)
      --seed      N   (default 1)
      --timeline      print the run as an ASCII time diagram
      --drop      P   drop each frame with probability P (0..=1)
      --dup       P   duplicate each frame with probability P (0..=1)
      --corrupt   P   flip one payload bit per frame with probability P (0..=1)
      --forge     P   inject a forged control frame with probability P (0..=1)
      --replay-stale P  re-deliver a stale copy of each frame with probability P
      --reorder   P   hold a frame behind a reordering burst with probability P
      --partition A:B:FROM:UNTIL   sever the A<->B link for FROM <= t < UNTIL (repeatable)
      --crash     P:AT[:RESTART]   crash process P at tick AT, optionally restarting (repeatable)
      --reliable      layer ack/retransmission under the protocol (fifo, causal-rst, sync)
      --online        monitor --spec online and halt at the first violating delivery
      --record PATH   write the run as a replayable JSONL trace
      --metrics       print the run's metrics report (latency histograms, wire counters)
  msgorder explore [options]               exhaustively explore every schedule of a
                                           seeded workload (model checking)
      --protocol  async|fifo|causal-rst|causal-ses|flush|sync|sync-batched|synthesized
                      (default async)
      --spec      \"<predicate>\"  (required for synthesized; otherwise count
                      schedules violating the spec)
      --processes N   (default 3)
      --messages  N   (default 6)
      --seed      N   (default 1)
      --por       on|off   sleep-set partial-order reduction (default on)
      --threads   N   worker threads over the sharded frontier (default 1)
      --dedup     off|exact   configuration deduplication (default off)
      --cap       N   stop after N complete schedules
      --max-depth N   truncate schedules deeper than N dispatches
      --drop      P   drop each frame with probability P (incompatible with --dedup,
                      makes --por ineffective)
      --dup       P   duplicate each frame with probability P (same restrictions)
  msgorder replay <trace.jsonl> [--metrics]
                                           re-execute a recorded trace and check it
                                           reproduces bit-exactly (fingerprint, stats,
                                           spec verdict)
  msgorder shrink <trace.jsonl> [--out PATH]
                                           delta-debug a violating trace to a minimal
                                           reproducer of the same verdict class
                                           (default output: <trace>.min.jsonl)
  msgorder chaos [options]                 seeded randomized fault/protocol sweep;
                                           violations are shrunk and deduplicated
      --trials N      (default 50)
      --seed   N      (default 1)
      --protocol X    restrict to one protocol (repeatable)
      --step-limit N  per-trial step budget (default 200000)
      --no-shrink     report raw traces without minimizing
      --confirm       cross-check each spec violation against a fault-free
                      exhaustive exploration (inherent vs fault-induced)
      --adversarial   also sample corruption/forgery/stale-replay/reordering
                      per trial (findings are deduplicated per fault family)
      --out DIR       write each finding's reproducer trace into DIR
  msgorder serve [options]                 run a live session over real sockets:
                                           this process is the wall-clock kernel,
                                           each peer process hosts one protocol
                                           instance; the recorded trace replays
                                           bit-exact with `msgorder replay`
      --transport tcp:HOST:PORT|unix:PATH  where to listen (default tcp:127.0.0.1:4600)
      --protocol  async|fifo|causal-rst|causal-ses|flush|sync|sync-batched (default causal-rst)
      --spec      \"<predicate>\"  verified over the live run and on replay
      --processes N   (default 3)
      --messages  N   (default 30)
      --seed      N   (default 1)
      --reliable      layer ack/retransmission under the protocol
      --step-limit N  livelock budget (default 1000000)
      --tick-us  N    wall-clock µs per virtual tick (default 0 = free-run)
      --record PATH   write the live run as a replayable JSONL trace
      --spawn         fork the N client processes locally (loopback demo)
      --metrics-addr HOST:PORT   serve live Prometheus metrics over HTTP while
                      the session runs (port 0 picks a free port)
      --metrics-out PATH         write a metrics snapshot file every second
      --wire-chaos SEED          inject CRC-corrupt frame copies on every link
                      (rejected, counted, resynced)
  msgorder client --connect tcp:HOST:PORT|unix:PATH --node N [--wire-chaos SEED]
                                           host one protocol instance for a
                                           `msgorder serve` session (protocol and
                                           workload arrive in the handshake)
  msgorder soak [options]                  long-run harness: episode after episode
                                           of simulated traffic under rotating
                                           fault schedules, with bounded-memory
                                           metrics streaming and online liveness
                                           sampling
      --duration  D   wall-clock budget, e.g. 45s, 5m, 2h (default 60s)
      --protocol  X   registry protocol (default causal-rst)
      --spec      S   monitor a spec online each episode (catalog name or DSL)
      --processes N   (default 4)
      --messages  N   user messages per episode (default 256)
      --seed      N   master seed; episode i of seed s is deterministic (default 12648430)
      --drop      P   base per-frame drop probability every episode
      --dup       P   base per-frame duplication probability every episode
      --reliable      layer ack/retransmission under the protocol
      --adversarial   sample corruption/forgery/stale-replay/reordering per episode
      --no-rotate     keep the base fault model only (no sampled partitions/crashes)
      --step-limit N  kernel step budget per episode (default 1000000)
      --max-episodes N  stop after N episodes even if time remains
      --metrics-addr HOST:PORT   serve live Prometheus metrics over HTTP; the
                      endpoint is self-scraped at the end and the run fails if
                      it does not answer with parseable metrics
      --metrics-out PATH         write a metrics snapshot file every second
      --report PATH   write the machine-readable end-of-run report as JSON
      --max-rss-growth-mb N      fail if resident memory grew more than N MiB
                      from the post-warmup baseline (leak detector)

PREDICATE DSL:
  forbid x, y: x.s < y.s & y.r < x.r where proc(x.s) = proc(y.s), color(y) = red"
    );
}
