//! Seeded, deterministic request-arrival processes.
//!
//! Three regimes cover the serving literature's standard shapes:
//!
//! * **Poisson** — memoryless open-loop arrivals at a fixed average rate
//!   (the baseline assumption of queueing analysis);
//! * **bursty** — an on/off modulated Poisson process: the same average
//!   rate compressed into periodic bursts, stressing queue depth and
//!   tail latency;
//! * **closed-loop** — a fixed client population where each client waits
//!   for its response plus a think time before issuing the next request
//!   (throughput self-limits instead of queues growing without bound).
//!
//! Everything is a pure function of the seed: samples come from the
//! workspace's seeded `SmallRng`, and time is virtual nanoseconds — no
//! wall clock anywhere.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::request::Request;
use crate::request::{Cell, CELL_COUNT};

/// Virtual nanoseconds per second.
pub const NS_PER_S: u64 = 1_000_000_000;

/// The arrival process shaping a scenario's traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals at `rate_rps` requests per second.
    Poisson {
        /// Average offered load, requests per second.
        rate_rps: f64,
    },
    /// Open-loop on/off Poisson: every `period_ns`, arrivals are
    /// compressed into the first `duty` fraction of the period at rate
    /// `rate_rps / duty`, so the long-run average stays `rate_rps`.
    Bursty {
        /// Average offered load, requests per second.
        rate_rps: f64,
        /// On/off cycle length, virtual nanoseconds.
        period_ns: u64,
        /// Fraction of each period that receives traffic, in `(0, 1]`.
        duty: f64,
    },
    /// Closed-loop traffic from a fixed client population: each client
    /// issues its next request `think_ns` after its previous response.
    ClosedLoop {
        /// Number of concurrent clients.
        clients: usize,
        /// Mean think time between response and next request, ns.
        think_ns: u64,
    },
}

impl ArrivalProcess {
    /// The process name serialized into serve records.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::ClosedLoop { .. } => "closed-loop",
        }
    }

    /// Nominal offered load in requests per second. For closed-loop
    /// traffic this is the zero-latency ceiling `clients / think`.
    pub fn rate_rps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rps } | ArrivalProcess::Bursty { rate_rps, .. } => {
                rate_rps
            }
            ArrivalProcess::ClosedLoop { clients, think_ns } => {
                clients as f64 * NS_PER_S as f64 / think_ns.max(1) as f64
            }
        }
    }
}

/// A scenario's traffic: the arrival process, the total request budget,
/// and the stream seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traffic {
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Total number of requests the scenario generates.
    pub requests: usize,
    /// Seed of the request stream (arrival times and cell choices).
    pub seed: u64,
}

impl Traffic {
    /// Opens the deterministic request stream for this traffic —
    /// shorthand for [`TrafficStream::new`].
    pub fn stream(self) -> TrafficStream {
        TrafficStream::new(self)
    }
}

/// The deterministic request stream of one scenario.
///
/// Open-loop processes pre-generate every arrival; closed-loop traffic
/// yields only each client's first request here, and the simulator pulls
/// follow-ups via [`TrafficStream::next_closed_loop`] as responses
/// complete (arrivals depend on completions by definition).
#[derive(Debug, Clone)]
pub struct TrafficStream {
    traffic: Traffic,
    rng: SmallRng,
    issued: u64,
}

impl TrafficStream {
    /// Opens the stream. Identical `(process, requests, seed)` triples
    /// produce identical streams.
    pub fn new(traffic: Traffic) -> Self {
        Self {
            traffic,
            rng: SmallRng::seed_from_u64(traffic.seed),
            issued: 0,
        }
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total request budget.
    pub fn budget(&self) -> u64 {
        self.traffic.requests as u64
    }

    /// The initial arrivals: the full stream for open-loop processes,
    /// one first request per client for closed-loop.
    pub fn initial_arrivals(&mut self) -> Vec<Request> {
        match self.traffic.process {
            ArrivalProcess::Poisson { rate_rps } => {
                let mean = NS_PER_S as f64 / rate_rps.max(1e-9);
                let mut t = 0u64;
                (0..self.budget())
                    .map(|_| {
                        t += exp_sample_ns(&mut self.rng, mean);
                        self.issue(t, None)
                    })
                    .collect()
            }
            ArrivalProcess::Bursty {
                rate_rps,
                period_ns,
                duty,
            } => {
                let duty = duty.clamp(1.0 / period_ns.max(1) as f64, 1.0);
                let on_ns = (period_ns as f64 * duty).max(1.0) as u64;
                let mean = NS_PER_S as f64 * duty / rate_rps.max(1e-9);
                let mut t = 0u64;
                (0..self.budget())
                    .map(|_| {
                        t += exp_sample_ns(&mut self.rng, mean);
                        // Arrivals landing in the off part of the cycle
                        // fold into the start of the next burst.
                        if period_ns > 0 && t % period_ns >= on_ns {
                            t = (t / period_ns + 1) * period_ns;
                        }
                        self.issue(t, None)
                    })
                    .collect()
            }
            ArrivalProcess::ClosedLoop { clients, think_ns } => (0..clients)
                .map_while(|c| {
                    if self.issued >= self.budget() {
                        return None;
                    }
                    let t = exp_sample_ns(&mut self.rng, think_ns as f64);
                    Some(self.issue(t, Some(c)))
                })
                .collect(),
        }
    }

    /// The next request of a closed-loop client whose previous request
    /// completed at `completed_ns`. `None` once the budget is exhausted
    /// (or for open-loop streams, which pre-generate everything).
    pub fn next_closed_loop(&mut self, client: usize, completed_ns: u64) -> Option<Request> {
        let ArrivalProcess::ClosedLoop { think_ns, .. } = self.traffic.process else {
            return None;
        };
        if self.issued >= self.budget() {
            return None;
        }
        let t = completed_ns + exp_sample_ns(&mut self.rng, think_ns as f64);
        Some(self.issue(t, Some(client)))
    }

    fn issue(&mut self, arrival_ns: u64, client: Option<usize>) -> Request {
        let id = self.issued;
        self.issued += 1;
        let cell = Cell::from_index(self.rng.gen_range(0..CELL_COUNT));
        Request {
            id,
            client: client.unwrap_or(id as usize),
            arrival_ns,
            cell,
        }
    }
}

/// One exponential inter-arrival sample with the given mean, in whole
/// nanoseconds (at least 1 — two requests never alias to the same
/// instant's sample).
fn exp_sample_ns(rng: &mut SmallRng, mean_ns: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (-u.ln() * mean_ns).max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(process: ArrivalProcess, requests: usize, seed: u64) -> TrafficStream {
        TrafficStream::new(Traffic {
            process,
            requests,
            seed,
        })
    }

    #[test]
    fn poisson_is_seeded_sorted_and_rate_accurate() {
        let p = ArrivalProcess::Poisson { rate_rps: 10_000.0 };
        let a = stream(p, 2000, 7).initial_arrivals();
        let b = stream(p, 2000, 7).initial_arrivals();
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(
            a,
            stream(p, 2000, 8).initial_arrivals(),
            "different seed, different stream"
        );
        assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        // empirical rate within 10% of nominal over 2000 arrivals
        let span_s = a.last().unwrap().arrival_ns as f64 / NS_PER_S as f64;
        let rate = a.len() as f64 / span_s;
        assert!((9_000.0..11_000.0).contains(&rate), "rate {rate}");
        // ids are sequential and cells cover the grid
        assert!(a.iter().enumerate().all(|(i, r)| r.id == i as u64));
        let mut seen = [false; CELL_COUNT];
        for r in &a {
            seen[r.cell.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "2000 requests cover all 9 cells");
    }

    #[test]
    fn bursty_lands_only_in_burst_windows() {
        let period_ns = 1_000_000;
        let duty = 0.25;
        let p = ArrivalProcess::Bursty {
            rate_rps: 8_000.0,
            period_ns,
            duty,
        };
        let a = stream(p, 500, 3).initial_arrivals();
        let on_ns = (period_ns as f64 * duty) as u64;
        assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        for r in &a {
            assert!(
                r.arrival_ns % period_ns <= on_ns,
                "arrival {} outside burst window",
                r.arrival_ns
            );
        }
        assert_eq!(p.rate_rps(), 8_000.0);
    }

    #[test]
    fn closed_loop_paces_by_completion() {
        let p = ArrivalProcess::ClosedLoop {
            clients: 4,
            think_ns: 1_000_000,
        };
        let mut s = stream(p, 10, 5);
        let first = s.initial_arrivals();
        assert_eq!(first.len(), 4, "one initial request per client");
        assert_eq!(s.issued(), 4);
        let next = s.next_closed_loop(2, 5_000_000).expect("budget remains");
        assert_eq!(next.client, 2);
        assert!(next.arrival_ns > 5_000_000, "thinks after completion");
        // drain the budget: exactly `requests` requests ever issue
        let mut n = s.issued();
        while s.next_closed_loop(0, 1).is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert_eq!(s.issued(), 10);
        // nominal rate = clients / think = 4000 rps
        assert!((p.rate_rps() - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_streams_never_yield_follow_ups() {
        let mut s = stream(ArrivalProcess::Poisson { rate_rps: 100.0 }, 8, 1);
        let _ = s.initial_arrivals();
        assert!(s.next_closed_loop(0, 123).is_none());
    }
}
