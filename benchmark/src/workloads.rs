//! The benchmark's workloads: each one a topology, a scheme and a seeded
//! generator of [`FlowSpec`]s. The simulator only ever sees the generated
//! specs; the seed reaches it as `ExperimentConfig::seed`.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use uno::{ExperimentConfig, SchemeSpec};
use uno_sim::{SampleConfig, Time, TopologyParams, MICROS, SECONDS};
use uno_workloads::{incast, permutation, Cdf, FlowSpec};

/// What a workload's flows look like.
#[derive(Clone, Debug)]
pub enum Traffic {
    /// `intra` senders in DC 0 and `inter` senders in DC 1, all sending
    /// `size` bytes to host 0 of DC 0 at t = 0.
    Incast {
        intra: usize,
        inter: usize,
        size: u64,
    },
    /// `flows` Poisson arrivals at `load`, a fixed `inter_fraction` of them
    /// crossing the WAN; intra sizes follow web search, inter sizes the
    /// Alibaba WAN distribution.
    Mix {
        flows: usize,
        load: f64,
        inter_fraction: f64,
    },
    /// Every host sends `size` bytes to a seeded random peer.
    Permutation { size: u64 },
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Network to simulate.
    pub topo: TopologyParams,
    /// Flows to offer.
    pub traffic: Traffic,
    /// Uniform loss probability on every border link (0 = none).
    pub border_loss: f64,
    /// Telemetry sampling period, when the workload pays for telemetry.
    pub telemetry: Option<Time>,
}

/// Simulated-time limit of every run; every flow must finish well before it.
pub const HORIZON: Time = 10 * SECONDS;

/// Names accepted by `--workload`, in the order of `BENCHMARK.json`.
pub const NAMES: [&str; 3] = ["incast_2dc", "websearch_wan_mix", "permutation_4dc"];

impl Workload {
    /// The full-size workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        let base = Workload {
            name: NAMES.iter().copied().find(|n| *n == name)?,
            topo: TopologyParams::default(),
            traffic: Traffic::Permutation { size: 0 },
            border_loss: 0.0,
            telemetry: None,
        };
        Some(match name {
            "incast_2dc" => Workload {
                traffic: Traffic::Incast {
                    intra: 8,
                    inter: 8,
                    size: 64 << 20,
                },
                ..base
            },
            "websearch_wan_mix" => Workload {
                traffic: Traffic::Mix {
                    flows: 1000,
                    load: 0.6,
                    inter_fraction: 0.2,
                },
                border_loss: 0.001,
                telemetry: Some(100 * MICROS),
                ..base
            },
            _ => Workload {
                topo: TopologyParams::multi_dc(4, 16, 8),
                traffic: Traffic::Permutation { size: 256 << 10 },
                ..base
            },
        })
    }

    /// The same workload shrunk onto k=4 fat-trees with few, small flows,
    /// for the benchmark's own tests.
    pub fn tiny(mut self) -> Workload {
        self.topo.k = 4;
        self.topo.border_links = 4;
        self.traffic = match self.traffic {
            Traffic::Incast { .. } => Traffic::Incast {
                intra: 6,
                inter: 6,
                size: 1 << 20,
            },
            Traffic::Mix {
                load,
                inter_fraction,
                ..
            } => Traffic::Mix {
                flows: 40,
                load,
                inter_fraction,
            },
            Traffic::Permutation { .. } => Traffic::Permutation { size: 64 << 10 },
        };
        self
    }

    /// The simulator configuration for `seed`.
    pub fn config(&self, seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(SchemeSpec::uno(), seed);
        cfg.topo = self.topo.clone();
        cfg.telemetry = self.telemetry.map(SampleConfig::every);
        cfg
    }

    /// Generate the flows for `seed`.
    pub fn specs(&self, seed: u64) -> Vec<FlowSpec> {
        let hosts = self.topo.hosts_per_dc() as u32;
        let mut rng = SmallRng::seed_from_u64(seed);
        match self.traffic {
            Traffic::Incast { intra, inter, size } => incast(intra, inter, size, hosts),
            Traffic::Permutation { size } => {
                permutation(hosts, self.topo.dcs as u8, size, &mut rng)
            }
            Traffic::Mix {
                flows,
                load,
                inter_fraction,
            } => self.mix(flows, load, inter_fraction, &mut rng),
        }
    }

    /// A two-DC Poisson mix whose flow sizes form the same multiset on every
    /// seed: each class takes its CDF's quantiles at `(i + 0.5) / n`, and the
    /// seed shuffles them, draws the arrival gaps and picks the endpoints.
    /// Total bytes (and so the simulator's work) and per-host fan-in then
    /// stay fixed across seeds while the traffic pattern changes.
    fn mix(
        &self,
        flows: usize,
        load: f64,
        inter_fraction: f64,
        rng: &mut SmallRng,
    ) -> Vec<FlowSpec> {
        assert_eq!(self.topo.dcs, 2, "the mix spans two DCs");
        let hosts = self.topo.hosts_per_dc() as u32;
        let n_inter = (flows as f64 * inter_fraction).round() as usize;
        let strata = |cdf: Cdf, n: usize| -> Vec<u64> {
            (0..n)
                .map(|i| cdf.quantile((i as f64 + 0.5) / n as f64).max(1))
                .collect()
        };
        let mut sizes: Vec<(bool, u64)> = strata(Cdf::websearch(), flows - n_inter)
            .into_iter()
            .map(|s| (false, s))
            .chain(
                strata(Cdf::alibaba_wan(), n_inter)
                    .into_iter()
                    .map(|s| (true, s)),
            )
            .collect();
        sizes.shuffle(rng);

        let total_bytes: u64 = sizes.iter().map(|&(_, s)| s).sum();
        let capacity = hosts as f64 * self.topo.dcs as f64 * self.topo.link_bps as f64 / 8.0;
        // Arrival rate in flows per second.
        let lambda = load * capacity * flows as f64 / total_bytes as f64;
        // Receivers cycle through a seeded order of all hosts, so every host
        // receives the same number of flows; senders are uniform in the
        // receiver's DC (intra) or the other DC (inter).
        let mut receivers: Vec<(u8, u32)> = (0..2u8)
            .flat_map(|dc| (0..hosts).map(move |h| (dc, h)))
            .collect();
        receivers.shuffle(rng);
        let mut t = 0.0f64;
        sizes
            .into_iter()
            .zip(receivers.into_iter().cycle())
            .map(|((inter, size), (dst_dc, dst_idx))| {
                t += -rng.gen::<f64>().max(1e-12).ln() / lambda;
                let (src_dc, src_idx) = if inter {
                    (1 - dst_dc, rng.gen_range(0..hosts))
                } else {
                    let mut s = rng.gen_range(0..hosts - 1);
                    if s >= dst_idx {
                        s += 1;
                    }
                    (dst_dc, s)
                };
                FlowSpec {
                    src_dc,
                    src_idx,
                    dst_dc,
                    dst_idx,
                    size,
                    start: (t * SECONDS as f64) as Time,
                }
            })
            .collect()
    }
}
