//! Workloads: timed user send requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One user send request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SendSpec {
    /// When the user invokes the send (`x.s*`).
    pub at: u64,
    /// Sending process.
    pub src: usize,
    /// Receiving process.
    pub dst: usize,
    /// Optional message color (red markers, handoff, ...).
    pub color: Option<String>,
}

/// A batch of user send requests driven into the simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Workload {
    /// The requests, in any order: the kernel sorts them by `(at,
    /// index)`, so equal times dispatch in list order.
    pub sends: Vec<SendSpec>,
}

impl Workload {
    /// `n` messages between uniformly random distinct process pairs, at
    /// uniformly random times in `[0, 10n)`.
    pub fn uniform_random(processes: usize, n: usize, seed: u64) -> Workload {
        assert!(processes >= 2, "need at least two processes");
        let mut rng = StdRng::seed_from_u64(seed);
        let sends = (0..n)
            .map(|_| {
                let src = rng.gen_range(0..processes);
                let mut dst = rng.gen_range(0..processes);
                while dst == src {
                    dst = rng.gen_range(0..processes);
                }
                SendSpec {
                    at: rng.gen_range(0..(10 * n as u64).max(1)),
                    src,
                    dst,
                    color: None,
                }
            })
            .collect();
        Workload { sends }
    }

    /// A bursty client-server pattern: all clients fire volleys at a
    /// single server at nearly the same instants — maximal reordering
    /// pressure per destination.
    pub fn client_server(processes: usize, bursts: usize, per_burst: usize, seed: u64) -> Workload {
        assert!(processes >= 2, "need at least two processes");
        let mut rng = StdRng::seed_from_u64(seed);
        let server = 0usize;
        let mut sends = Vec::new();
        for b in 0..bursts {
            let t0 = (b as u64) * 1_000;
            for _ in 0..per_burst {
                let src = rng.gen_range(1..processes);
                sends.push(SendSpec {
                    at: t0 + rng.gen_range(0..5),
                    src,
                    dst: server,
                    color: None,
                });
            }
        }
        Workload { sends }
    }

    /// A causal-relay chain: P0 messages P1, P1 relays to P2, ... —
    /// stresses cross-channel causal delivery. Requests are spaced so
    /// each hop's send happens after the previous delivery would
    /// typically land.
    pub fn relay_chain(processes: usize, rounds: usize) -> Workload {
        assert!(processes >= 2, "need at least two processes");
        let mut sends = Vec::new();
        for round in 0..rounds {
            for hop in 0..processes - 1 {
                sends.push(SendSpec {
                    at: (round * processes + hop) as u64 * 500,
                    src: hop,
                    dst: hop + 1,
                    color: None,
                });
            }
        }
        Workload { sends }
    }

    /// Mixed traffic with every `marker_every`-th message colored — for
    /// the flush-channel experiments.
    pub fn with_markers(
        processes: usize,
        n: usize,
        marker_every: usize,
        color: &str,
        seed: u64,
    ) -> Workload {
        let mut w = Workload::uniform_random(processes, n, seed);
        for (i, s) in w.sends.iter_mut().enumerate() {
            if marker_every > 0 && i % marker_every == marker_every - 1 {
                s.color = Some(color.to_owned());
            }
        }
        w
    }

    /// Broadcast rounds: each round one random origin "broadcasts" by
    /// requesting `n - 1` unicasts (one per other process) at the same
    /// instant. This is the multicast shape the paper's closing remark
    /// points at; the BSS causal-broadcast protocol consumes it.
    ///
    /// All the unicasts of one broadcast share the color
    /// `bcast<round>` so verifiers can group them.
    pub fn broadcast_rounds(processes: usize, rounds: usize, seed: u64) -> Workload {
        assert!(processes >= 2, "need at least two processes");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sends = Vec::new();
        for round in 0..rounds {
            let origin = rng.gen_range(0..processes);
            // A jittered instant inside the round's own window, so the
            // instants of different broadcasts never collide (one
            // instant per origin identifies one broadcast's fan-out).
            let at = round as u64 * 200 + rng.gen_range(0..180);
            for dst in 0..processes {
                if dst != origin {
                    sends.push(SendSpec {
                        at,
                        src: origin,
                        dst,
                        color: Some(format!("bcast{round}")),
                    });
                }
            }
        }
        Workload { sends }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_random_shape() {
        let w = Workload::uniform_random(4, 50, 9);
        assert_eq!(w.len(), 50);
        assert!(w
            .sends
            .iter()
            .all(|s| s.src != s.dst && s.src < 4 && s.dst < 4));
    }

    #[test]
    fn uniform_random_deterministic() {
        assert_eq!(
            Workload::uniform_random(3, 20, 5),
            Workload::uniform_random(3, 20, 5)
        );
    }

    #[test]
    fn client_server_targets_server() {
        let w = Workload::client_server(4, 3, 5, 1);
        assert_eq!(w.len(), 15);
        assert!(w.sends.iter().all(|s| s.dst == 0 && s.src != 0));
    }

    #[test]
    fn relay_chain_hops() {
        let w = Workload::relay_chain(3, 2);
        assert_eq!(w.len(), 4);
        assert_eq!((w.sends[0].src, w.sends[0].dst), (0, 1));
        assert_eq!((w.sends[1].src, w.sends[1].dst), (1, 2));
    }

    #[test]
    fn markers_colored() {
        let w = Workload::with_markers(3, 10, 5, "red", 2);
        let reds: Vec<usize> = w
            .sends
            .iter()
            .enumerate()
            .filter(|(_, s)| s.color.as_deref() == Some("red"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(reds, vec![4, 9]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_process_rejected() {
        let _ = Workload::uniform_random(1, 5, 0);
    }

    #[test]
    fn broadcast_rounds_fan_out() {
        let w = Workload::broadcast_rounds(4, 3, 1);
        assert_eq!(w.len(), 9, "3 rounds x 3 receivers");
        // each round: same origin, same time, distinct destinations
        for round in 0..3 {
            let color = format!("bcast{round}");
            let group: Vec<_> = w
                .sends
                .iter()
                .filter(|s| s.color.as_deref() == Some(&color))
                .collect();
            assert_eq!(group.len(), 3);
            assert!(group.iter().all(|s| s.src == group[0].src));
            assert!(group.iter().all(|s| s.at == group[0].at));
            let mut dsts: Vec<usize> = group.iter().map(|s| s.dst).collect();
            dsts.sort_unstable();
            dsts.dedup();
            assert_eq!(dsts.len(), 3);
        }
    }
}
