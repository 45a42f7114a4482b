//! One module per regenerated table/figure. See `EXPERIMENTS.md` for the
//! paper-vs-measured record each module feeds.

pub mod ablations;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod table1;

use std::path::PathBuf;

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Global dataset scale multiplier (1.0 = the laptop defaults in
    /// `imc-datasets`; the per-experiment dataset choices already scale
    /// the big graphs down).
    pub scale: f64,
    /// Shrink sweeps for a fast smoke run.
    pub quick: bool,
    /// Directory for CSV output (`None` = stdout only).
    pub out_dir: Option<PathBuf>,
    /// Base RNG seed.
    pub seed: u64,
    /// Independent repetitions averaged per cell (paper: 10).
    pub runs: u64,
    /// Cap on RIC samples per IMCAF solve.
    pub max_samples: usize,
    /// Forward-simulation budget for the Dagum grader.
    pub grade_budget: u64,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 1.0,
            quick: false,
            out_dir: None,
            seed: 0x01C0_FFEE,
            runs: 3,
            max_samples: 30_000,
            grade_budget: 200_000,
        }
    }
}

impl ExpOptions {
    /// A configuration small enough for CI smoke tests on one core.
    pub fn smoke() -> Self {
        ExpOptions {
            scale: 0.25,
            quick: true,
            runs: 1,
            max_samples: 2_000,
            grade_budget: 20_000,
            ..ExpOptions::default()
        }
    }
}
