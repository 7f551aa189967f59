//! The repository benchmark: one process runs one workload.
//!
//! ```text
//! perfbench --workload <scene-scan|patch-query|serve-sim|nas-trial>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs derive from `--seed` alone. With `--trace 0` the workload runs
//! with dcd-obs off and reports the end-to-end metrics; with `--trace 1` it
//! runs an untraced and a traced window and reports the per-layer metrics.
//! The last line of standard output is the JSON result. See `README.md`.

mod host;
mod nas_trial;
mod patch_query;
mod report;
mod scene_scan;
mod serve_sim;
mod spans;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["scene-scan", "patch-query", "serve-sim", "nas-trial"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The CPU model string, for the environment record.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    dcd_obs::set_thread_capacity(host::SPAN_CAPACITY);
    println!(
        "env  workload={} seed={} seconds={} trace={} pool_threads={} cpu=\"{}\" avx2={} fma={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        rayon::current_num_threads(),
        cpu_model(),
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
    );
    let out = match args.workload.as_str() {
        "scene-scan" => scene_scan::run(&args),
        "patch-query" => patch_query::run(&args),
        "serve-sim" => serve_sim::run(&args),
        "nas-trial" => nas_trial::run(&args),
        _ => unreachable!("workload validated in parse_args"),
    };
    out.print(&args.workload, args.trace);
}
