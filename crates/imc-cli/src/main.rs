//! The `imc` command-line tool.
//!
//! ```text
//! imc <command> [flags]
//!
//! commands:
//!   generate     synthesize a graph (--model ba|er|ws|pp|rmat) to an edge list
//!   communities  detect communities (--method louvain|lpa|random) to a file
//!   solve        run IMCAF (--algo ubg|maf|mb|bt|greedy, --threads N) on graph + communities
//!   estimate     grade a seed set (--seeds 1,2,3) with the Dagum estimator
//!   stats        structural statistics of a graph
//!   dot          render graph (+communities, +seeds) as Graphviz DOT
//!   cluster      run a sharded solve cluster from a topology file (--topology FILE,
//!                --out FILE, --data-dir DIR, --chaos SPEC, --quiet); verifies the
//!                distributed solve bitwise against single-node (seeds and
//!                evaluation count) and, with --chaos, the fault-recovery contract
//!   trace        stitch JSONL trace files into a solve timeline
//!                (--input FILE[,FILE...], --trace-id ID, --folded FILE for
//!                flamegraph folded stacks, --out FILE for the report):
//!                per-round straggler attribution, fault-recovery events,
//!                the critical path
//!   serve        run the query daemon (--addr, --workers, --snapshot, --refresh-target,
//!                --max-solve-threads N per-request parallelism cap,
//!                --metrics-port N for a Prometheus GET /metrics listener,
//!                --slow-request-log MS to log requests slower than MS)
//!   query        send one request to a daemon
//!                (--addr, --op solve|estimate|stats|metrics|health|shutdown;
//!                 solve tuning: --threads N, --depth D)
//!   snapshot     save | load a persistent RIC sample store
//!                (--samples, --out / --file; format v3 only)
//!
//! common flags:
//!   --graph FILE  --communities FILE  --undirected  --weights cascade|keep|trivalency|<p>
//!   --threshold H | --threshold-frac F   --benefit population|<constant>
//!   --seed N  --out FILE  --quiet  --trace FILE (JSONL solver/daemon event log)
//! ```

use imc_cli::args::Args;
use imc_cli::{commands, CliError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let Some(mut command) = argv.next() else {
        eprintln!(
            "usage: imc <generate | communities | solve | estimate | stats | dot | serve | \
             cluster | trace | query | snapshot save|load> [flags]"
        );
        eprintln!("run with a command and no flags to see its errors spelled out");
        return ExitCode::from(2);
    };
    // `snapshot` takes an action word before the flags: `imc snapshot save ...`.
    if command == "snapshot" {
        if let Some(action) = argv.next_if(|token| !token.starts_with("--")) {
            command = format!("snapshot {action}");
        }
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match commands::run(&command, &args, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e @ CliError::Usage(_)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
