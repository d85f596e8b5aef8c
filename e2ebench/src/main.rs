//! `frodo-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable detail on stderr and, as the last line of stdout,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). Build products go under `$CARGO_TARGET_DIR` (default
//! `.bench_build`) and are removed before exit.

use frodo_benchmodels::all as table1;
use frodo_e2ebench::compile::{self, CompileSamples, StageSamples};
use frodo_e2ebench::jobs::{self, SYNTH_SIZE, SYNTH_SMALL_SIZE};
use frodo_e2ebench::native::{self, NativeSetup, Variant};
use frodo_e2ebench::stats::{floor, median, percentile, percentile_of_floors, scaling_exponent};
use frodo_e2ebench::{json, peak_rss_mb, Tally};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions whose median is `setup_s`, per workload.
const SETUP_REPS_COMPILE: usize = 9;
const SETUP_REPS_NATIVE: usize = 1;
/// Total time of the companion measurements that fill in the metrics a
/// workload does not focus on.
const COMPANION_COMPILE: Duration = Duration::from_secs(10);
const COMPANION_NATIVE: Duration = Duration::from_secs(20);
/// Native rounds every run makes at least.
const MIN_ROUNDS: usize = 3;
/// Slices the focus and companion measurements alternate in, so that both
/// sample the whole run rather than one stretch of the host's phases.
const SLICES: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Table1Compile,
    Table1Run,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = match value("--workload")? {
        "table1-compile" => Workload::Table1Compile,
        "table1-run" => Workload::Table1Run,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Metric rows: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn push(m: &mut Metrics, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
    m.push((name.into(), value.unwrap_or(f64::NAN), unit));
}

/// Runs `f` `reps` times; returns the last result and the median wall
/// time in seconds.
fn repeat_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one rep"),
        median(&times).expect("non-empty"),
    ))
}

/// Removes the build directory when the run ends, however it ends.
struct BuildDir(PathBuf);

impl Drop for BuildDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn report_native(setup: &NativeSetup, samples: &[Vec<f64>]) {
    eprintln!("native ns/step per program (p10 / p25 / p50 / p75 over processes):");
    for (h, s) in setup.harnesses.iter().zip(samples) {
        let q = |p| percentile(s, p).unwrap_or(f64::NAN);
        eprintln!(
            "  {:<14} {:<22} {:>7} steps  {:>11.1} {:>11.1} {:>11.1} {:>11.1}  (n={})",
            h.model,
            h.variant.label(),
            h.iters,
            q(10.0),
            q(25.0),
            q(50.0),
            q(75.0),
            s.len()
        );
    }
}

fn report_compile(jobs: &[jobs::Job], samples: &CompileSamples) {
    eprintln!("compile ms per job (p10 over repetitions: cold / edit / hit, repetitions):");
    for (i, job) in jobs.iter().enumerate() {
        let f = |g: &[Vec<f64>]| floor(&g[i]).unwrap_or(f64::NAN);
        eprintln!(
            "  {:<32} {:>9.3} {:>9.3} {:>9.3}  (n={})",
            job.name,
            f(&samples.cold_ms),
            f(&samples.edit_ms),
            f(&samples.hit_ms),
            samples.edit_ms[i].len()
        );
    }
}

/// Alternates [`SLICES`] slices of the compile sequence and of native
/// rounds, spending `compile` and `native` in total on each.
fn interleave(
    jobs: &[jobs::Job],
    setup: &NativeSetup,
    compile: Duration,
    native: Duration,
    tally: &mut Tally,
) -> (CompileSamples, Vec<Vec<f64>>) {
    let mut samples = CompileSamples::default();
    let mut runs = vec![Vec::new(); setup.harnesses.len()];
    for _ in 0..SLICES {
        samples.append(compile::measure(jobs, compile / SLICES, tally));
        let more = native::run_rounds(setup, native / SLICES, 1, tally);
        for (all, more) in runs.iter_mut().zip(more) {
            all.extend(more);
        }
    }
    (samples, runs)
}

fn untraced(args: &Args, dir: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    let (setup_s, jobs, samples, native, runs) = match args.workload {
        Workload::Table1Compile => {
            let (jobs, setup_s) =
                repeat_setup(SETUP_REPS_COMPILE, || jobs::table1_jobs(args.seed))?;
            let native = native::build(dir, &Variant::HEADLINE, tally)?;
            let (samples, runs) = interleave(&jobs, &native, args.seconds, COMPANION_NATIVE, tally);
            (setup_s, jobs, samples, native, runs)
        }
        Workload::Table1Run => {
            let (native, setup_s) = repeat_setup(SETUP_REPS_NATIVE, || {
                native::build(dir, &Variant::HEADLINE, tally)
            })?;
            let jobs = jobs::table1_jobs(args.seed)?;
            let (samples, runs) =
                interleave(&jobs, &native, COMPANION_COMPILE, args.seconds, tally);
            (setup_s, jobs, samples, native, runs)
        }
    };
    report_native(&native, &runs);
    report_compile(&jobs, &samples);
    let frodo = Variant::Style(frodo_codegen::GeneratorStyle::Frodo);
    let simulink = Variant::Style(frodo_codegen::GeneratorStyle::SimulinkCoder);
    let frodo_ns: Vec<f64> = native::floor_of(&native, &runs, frodo)
        .into_iter()
        .map(|(_, ns)| ns)
        .collect();
    let mut m = Metrics::new();
    push(&mut m, "setup_s", Some(setup_s), "s");
    let cold = &samples.cold_ms;
    push(
        &mut m,
        "compile_ms_p50",
        percentile_of_floors(cold, 50.0),
        "ms",
    );
    push(
        &mut m,
        "compile_ms_p90",
        percentile_of_floors(cold, 90.0),
        "ms",
    );
    let hit = percentile_of_floors(&samples.hit_ms, 50.0);
    push(&mut m, "hit_ms_p50", hit, "ms");
    let edit = percentile_of_floors(&samples.edit_ms, 50.0);
    push(&mut m, "edit_ms_p50", edit, "ms");
    push(&mut m, "peak_rss_mb", peak_rss_mb(), "MiB");
    push(&mut m, "c_kib", samples.c_kib, "KiB");
    push(
        &mut m,
        "run_ns_geomean",
        (frodo_ns.len() == table1().len())
            .then(|| frodo_e2ebench::stats::geomean(&frodo_ns))
            .flatten(),
        "ns",
    );
    push(
        &mut m,
        "speedup_simulink_geomean",
        native::ratio_geomean(&native, &runs, simulink, frodo),
        "x",
    );
    push(&mut m, "static_kib", Some(native.static_kib), "KiB");
    push(
        &mut m,
        "ok_frac",
        Some((tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64),
        "ratio",
    );
    Ok(m)
}

fn traced(args: &Args, dir: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    let jobs = jobs::table1_jobs(args.seed)?;
    let budget = if args.workload == Workload::Table1Run {
        COMPANION_COMPILE
    } else {
        args.seconds
    };
    let st: StageSamples = compile::measure_stages(&jobs, budget, tally);

    // one synthetic model of the seed: the compile sequence at ~8k
    // blocks, and dfg/lower at ~8k and ~2k for the scaling exponents
    let big_job = jobs::synth_job(args.seed, SYNTH_SIZE)?;
    let synth = compile::measure_stages(std::slice::from_ref(&big_job), Duration::ZERO, tally);
    let big = tally.ok(compile::dfg_lower_floor(&big_job, 3));
    let small = jobs::synth_job(args.seed, SYNTH_SMALL_SIZE)?;
    let scale = big.zip(tally.ok(compile::dfg_lower_floor(&small, 5)));

    let native = native::build(dir, &Variant::ALL, tally)?;
    let native_budget = if args.workload == Workload::Table1Run {
        args.seconds
    } else {
        COMPANION_NATIVE
    };
    let runs = native::run_rounds(&native, native_budget, MIN_ROUNDS, tally);
    report_native(&native, &runs);

    let p50 = |v: &[f64]| median(v);
    let mut m = Metrics::new();
    push(&mut m, "slx.read_us", Some(st.p50(|s| s.read)), "us");
    push(
        &mut m,
        "model.flatten_us",
        Some(st.p50(|s| s.flatten)),
        "us",
    );
    push(&mut m, "driver.hash_us", p50(&st.hash), "us");
    push(&mut m, "driver.cache_us", p50(&st.cache), "us");
    push(&mut m, "graph.dfg_us", Some(st.p50(|s| s.dfg)), "us");
    push(&mut m, "core.iomap_us", Some(st.p50(|s| s.iomap)), "us");
    push(&mut m, "core.ranges_us", Some(st.p50(|s| s.ranges)), "us");
    push(
        &mut m,
        "core.classify_us",
        Some(st.p50(|s| s.classify)),
        "us",
    );
    push(&mut m, "codegen.lower_us", Some(st.p50(|s| s.lower)), "us");
    push(&mut m, "codegen.emit_us", Some(st.p50(|s| s.emit)), "us");
    push(&mut m, "driver.self_us", p50(&st.self_time), "us");
    push(&mut m, "driver.wall_us", p50(&st.wall), "us");
    let overhead = p50(&st.traced_wall).zip(p50(&st.wall)).map(|(t, u)| t - u);
    push(&mut m, "driver.trace_overhead_us", overhead, "us");
    let totals = st.frodo_totals;
    push(
        &mut m,
        "core.elim_ratio",
        totals.map(|t| t.1 as f64 / t.0.max(1) as f64),
        "ratio",
    );
    push(&mut m, "codegen.stmts", totals.map(|t| t.2 as f64), "count");
    push(&mut m, "codegen.flops", totals.map(|t| t.3 as f64), "count");
    push(
        &mut m,
        "driver.region_reuse_ratio",
        p50(&synth.region_reuse),
        "ratio",
    );
    push(
        &mut m,
        "driver.dirty_blocks",
        p50(&synth.dirty_blocks),
        "count",
    );
    push(
        &mut m,
        "synth.compile_ms",
        p50(&synth.wall).map(|us| us / 1e3),
        "ms",
    );
    push(
        &mut m,
        "synth.edit_ms",
        p50(&synth.edit).map(|us| us / 1e3),
        "ms",
    );
    push(
        &mut m,
        "synth.hit_ms",
        p50(&synth.hit).map(|us| us / 1e3),
        "ms",
    );
    push(&mut m, "synth.dfg_ms", big.map(|b| b.1 / 1e3), "ms");
    push(&mut m, "synth.lower_ms", big.map(|b| b.2 / 1e3), "ms");
    let exp = |pick: fn(&(usize, f64, f64)) -> f64| {
        scale.and_then(|(b, s)| scaling_exponent(s.0 as f64, pick(&s), b.0 as f64, pick(&b)))
    };
    push(&mut m, "graph.dfg_scale_exp", exp(|r| r.1), "exp");
    push(&mut m, "codegen.lower_scale_exp", exp(|r| r.2), "exp");
    let gcc: Vec<f64> = native.harnesses.iter().map(|h| h.gcc_ms).collect();
    push(&mut m, "sim.gcc_ms", p50(&gcc), "ms");
    for bench in table1() {
        for v in Variant::STYLES {
            let ns = native
                .harnesses
                .iter()
                .zip(&runs)
                .find(|(h, _)| h.model == bench.name && h.variant == v)
                .and_then(|(_, s)| floor(s));
            push(
                &mut m,
                format!("sim.run_ns.{}.{}", bench.name, v.label()),
                ns,
                "ns",
            );
        }
    }
    let frodo = Variant::Style(frodo_codegen::GeneratorStyle::Frodo);
    push(
        &mut m,
        "sim.window_reuse_ratio",
        native::ratio_geomean(&native, &runs, Variant::WindowReuse, frodo),
        "ratio",
    );
    push(
        &mut m,
        "sim.vectorize_batch_ratio",
        native::ratio_geomean(&native, &runs, Variant::VectorizeBatch, frodo),
        "ratio",
    );

    let stage_sum: f64 = [
        "slx.read_us",
        "model.flatten_us",
        "driver.hash_us",
        "graph.dfg_us",
        "core.iomap_us",
        "core.ranges_us",
        "core.classify_us",
        "codegen.lower_us",
        "codegen.emit_us",
        "driver.self_us",
    ]
    .iter()
    .filter_map(|n| m.iter().find(|(k, _, _)| k == n).map(|r| r.1))
    .sum();
    eprintln!(
        "accounting: stage p50s + self p50 = {stage_sum:.1} us; untraced wall p50 = {:.1} us; \
         tracing overhead = {:.1} us ({} jobs decomposed)",
        p50(&st.wall).unwrap_or(f64::NAN),
        overhead.unwrap_or(f64::NAN),
        st.stages.len()
    );
    if let Some(((b, bd, bl), (s, sd, sl))) = scale {
        eprintln!(
            "scaling: {s} -> {b} blocks; dfg {sd:.0} -> {bd:.0} us; lower {sl:.0} -> {bl:.0} us"
        );
    }
    Ok(m)
}

fn render(tally: &Tally, metrics: &Metrics) -> Result<String, String> {
    let mut rows = Vec::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} could not be measured"));
        }
        rows.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        rows.join(", ")
    ))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let dir = BuildDir(root.join(format!("e2e-{}", std::process::id())));
    eprintln!(
        "{} hardware threads; a default compile uses {} intra-model threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        frodo_driver::CompileOptions::default().resolved_intra_threads()
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&args, &dir.0, &mut tally)?
    } else {
        untraced(&args, &dir.0, &mut tally)?
    };
    render(&tally, &metrics)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
