//! Compile latency: cold compiles, one-block edits through a warm
//! session, cache hits, and the traced stage-by-stage decomposition.

use crate::jobs::Job;
use crate::{stats, timed_us, Tally};
use frodo_codegen::{emit_c_traced, generate_with, lir::Program, GeneratorStyle};
use frodo_core::{determine_ranges, Analysis, IoMappings, OptimizationReport, RangeEngine};
use frodo_driver::{
    CompileOptions, CompileService, CompileSession, JobOutput, JobSpec, ServiceConfig,
};
use frodo_graph::Dfg;
use frodo_obs::Trace;
use frodo_sim::program_flops;
use std::time::{Duration, Instant};

/// A one-worker service that never caches: every compile is cold.
pub fn cold_service() -> CompileService {
    CompileService::new(ServiceConfig {
        workers: 1,
        no_cache: true,
        ..Default::default()
    })
}

/// A one-worker service with an empty in-memory artifact cache.
pub fn caching_service() -> CompileService {
    CompileService::new(ServiceConfig {
        workers: 1,
        ..Default::default()
    })
}

/// Parses `.slx` bytes and compiles the model through `service`: the two
/// calls `frodo compile` makes. An enabled `trace` is attached to the job.
///
/// # Errors
///
/// The parse or compile error, prefixed with the job name.
pub fn compile_slx(
    service: &CompileService,
    name: &str,
    slx: &[u8],
    style: GeneratorStyle,
    options: CompileOptions,
    trace: &Trace,
) -> Result<JobOutput, String> {
    let model =
        frodo_slx::read_slx(slx, &Trace::noop()).map_err(|e| format!("{name}: read_slx: {e}"))?;
    let mut spec = JobSpec::from_model(name, model, style).with_options(options);
    if trace.is_enabled() {
        spec = spec.with_trace(trace);
    }
    service.compile(spec).map_err(|e| format!("{name}: {e}"))
}

/// Parses `.slx` bytes and compiles the model through a session.
fn session_slx(session: &mut CompileSession, name: &str, slx: &[u8]) -> Result<JobOutput, String> {
    let model =
        frodo_slx::read_slx(slx, &Trace::noop()).map_err(|e| format!("{name}: read_slx: {e}"))?;
    session
        .compile(name, model, &Trace::noop())
        .map_err(|e| format!("{name}: {e}"))
}

/// Samples of the untraced compile sequence, in milliseconds, one vector
/// of repetitions per job (in job order).
#[derive(Debug, Default)]
pub struct CompileSamples {
    /// `read_slx` + cold `CompileService::compile`.
    pub cold_ms: Vec<Vec<f64>>,
    /// `read_slx` + session compile of the edited model, after a warm-up
    /// compile of the original in the same session.
    pub edit_ms: Vec<Vec<f64>>,
    /// `read_slx` + the second submission of the edited model to a
    /// caching service (an in-memory hit).
    pub hit_ms: Vec<Vec<f64>>,
    /// Emitted C of one full pass over the jobs, in KiB.
    pub c_kib: Option<f64>,
}

impl CompileSamples {
    /// Adds `other`'s repetitions (taken over the same jobs) to these.
    pub fn append(&mut self, other: CompileSamples) {
        if self.cold_ms.is_empty() {
            *self = other;
            return;
        }
        for (mine, theirs) in [
            (&mut self.cold_ms, other.cold_ms),
            (&mut self.edit_ms, other.edit_ms),
            (&mut self.hit_ms, other.hit_ms),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.extend(b);
            }
        }
        self.c_kib = self.c_kib.or(other.c_kib);
    }
}

/// What one repetition of a job's compile sequence produced.
struct JobRun {
    cold: JobOutput,
    cold_us: [f64; 2],
    edit_us: f64,
    hit: JobOutput,
    hit_us: [f64; 2],
    session: CompileSession,
}

/// A job's state across repetitions: a caching service that holds the
/// edited model's artifact, and that artifact's C.
struct JobState {
    cache_svc: CompileService,
    edited_code: Option<String>,
}

impl JobState {
    fn new() -> Self {
        JobState {
            cache_svc: caching_service(),
            edited_code: None,
        }
    }
}

/// One repetition of the sequence every job goes through, each output
/// cross-checked: a cold compile; on the first repetition a submission of
/// the edited model to the job's caching service (a miss); a resubmission
/// (a hit, same C); a warm session compile of the original model (must
/// equal the cold C); a session compile of the edited model (must equal
/// the service's C); then a second cold compile and a second hit, so that
/// the two measurements that cost least get twice the samples.
fn run_job(
    job: &Job,
    state: &mut JobState,
    cold_svc: &CompileService,
    tally: &mut Tally,
) -> Option<JobRun> {
    let opts = CompileOptions::default();
    let noop = Trace::noop();
    let cold = |tally: &mut Tally| {
        let (out, us) =
            timed_us(|| compile_slx(cold_svc, &job.name, &job.slx, job.style, opts, &noop));
        tally.ok(out).map(|out| (out, us))
    };
    let svc = &state.cache_svc;
    let hit = |tally: &mut Tally, expected: &str| {
        let (out, us) =
            timed_us(|| compile_slx(svc, &job.name, &job.edited_slx, job.style, opts, &noop));
        let out = tally.ok(out)?;
        tally.check(out.report.cache.is_hit() && out.code == expected, || {
            format!(
                "{}: resubmission was not a cache hit of the same C",
                job.name
            )
        });
        Some((out, us))
    };

    let (first, cold_a) = cold(tally)?;
    let expected = match &state.edited_code {
        Some(code) => code,
        None => {
            let miss = tally.ok(compile_slx(
                svc,
                &job.name,
                &job.edited_slx,
                job.style,
                opts,
                &noop,
            ))?;
            tally.check(!miss.report.cache.is_hit(), || {
                format!("{}: first submission was a cache hit", job.name)
            });
            state.edited_code.insert(miss.code)
        }
    };
    let (_, hit_a) = hit(tally, expected)?;

    let mut session = CompileSession::builder(job.style).build();
    let warm = tally.ok(session_slx(&mut session, &job.name, &job.slx))?;
    tally.check(warm.code == first.code, || {
        format!("{}: warm session C differs from the cold compile", job.name)
    });
    let (edited, edit_us) = timed_us(|| session_slx(&mut session, &job.name, &job.edited_slx));
    let edited = tally.ok(edited)?;
    tally.check(&edited.code == expected, || {
        format!("{}: edited C differs between session and service", job.name)
    });

    let (second, cold_b) = cold(tally)?;
    tally.check(second.code == first.code, || {
        format!("{}: cold compiles of one model differ", job.name)
    });
    let (last_hit, hit_b) = hit(tally, expected)?;
    Some(JobRun {
        cold: first,
        cold_us: [cold_a, cold_b],
        edit_us,
        hit: last_hit,
        hit_us: [hit_a, hit_b],
        session,
    })
}

/// Cycles through `jobs` until `budget` has passed and at least one full
/// pass is done, collecting [`CompileSamples`].
pub fn measure(jobs: &[Job], budget: Duration, tally: &mut Tally) -> CompileSamples {
    let cold_svc = cold_service();
    let mut s = CompileSamples {
        cold_ms: vec![Vec::new(); jobs.len()],
        edit_ms: vec![Vec::new(); jobs.len()],
        hit_ms: vec![Vec::new(); jobs.len()],
        c_kib: None,
    };
    let mut states: Vec<JobState> = jobs.iter().map(|_| JobState::new()).collect();
    let mut c_bytes = 0usize;
    let start = Instant::now();
    for (i, job) in jobs.iter().cycle().enumerate() {
        if i >= jobs.len() && start.elapsed() >= budget {
            break;
        }
        let j = i % jobs.len();
        let Some(run) = run_job(job, &mut states[j], &cold_svc, tally) else {
            continue;
        };
        s.cold_ms[j].extend(run.cold_us.map(|us| us / 1e3));
        s.edit_ms[j].push(run.edit_us / 1e3);
        s.hit_ms[j].extend(run.hit_us.map(|us| us / 1e3));
        if i < jobs.len() {
            c_bytes += run.cold.code.len();
            if i + 1 == jobs.len() {
                s.c_kib = Some(c_bytes as f64 / 1024.0);
            }
        }
    }
    s
}

/// Benchmark-side timings (µs) of one job's compile, split at the public
/// stage functions.
#[derive(Debug, Clone)]
pub struct Stages {
    /// `frodo_slx::read_slx`.
    pub read: f64,
    /// `Model::flattened`.
    pub flatten: f64,
    /// `Dfg::new`.
    pub dfg: f64,
    /// `IoMappings::derive_with`.
    pub iomap: f64,
    /// `determine_ranges`.
    pub ranges: f64,
    /// `OptimizationReport::build`.
    pub classify: f64,
    /// `generate_with`.
    pub lower: f64,
    /// `emit_c_traced`.
    pub emit: f64,
    /// Blocks in the flattened model.
    pub blocks: usize,
    /// Elements computed before and after redundancy elimination.
    pub elements: (usize, usize),
    /// The lowered program.
    pub program: Program,
    /// The emitted C.
    pub code: String,
}

impl Stages {
    /// The sum of every stage timed here.
    pub fn total(&self) -> f64 {
        self.read
            + self.flatten
            + self.dfg
            + self.iomap
            + self.ranges
            + self.classify
            + self.lower
            + self.emit
    }
}

/// Compiles `slx` one public stage call at a time, each wrapped in a
/// benchmark-side timer, with the options a default compile resolves to:
/// more than one intra-model thread selects the parallel range engine and
/// the threaded emitter, as `CompileService::compile` does.
///
/// `Analysis` has no public constructor from its parts, so the analysis
/// that lowering consumes is rebuilt (untimed) with `Analysis::run_with`;
/// its ranges and report must equal the decomposed ones.
///
/// # Errors
///
/// A parse or model error, or a decomposition that disagrees with
/// `Analysis::run_with`.
pub fn decompose(
    name: &str,
    slx: &[u8],
    style: GeneratorStyle,
    options: CompileOptions,
) -> Result<Stages, String> {
    let noop = Trace::noop();
    let err = |e: &dyn std::fmt::Display| format!("{name}: {e}");
    let threads = options.resolved_intra_threads();
    let mut range = options.keyed.range;
    if threads > 1 {
        range.engine = RangeEngine::Parallel;
        range.threads = threads;
    }
    let (model, read) = timed_us(|| frodo_slx::read_slx(slx, &noop));
    let model = model.map_err(|e| err(&e))?;
    let (flat, flatten) = timed_us(|| model.flattened(&noop));
    let flat = flat.map_err(|e| err(&e))?;
    let input = flat.clone();
    let (dfg, dfg_us) = timed_us(|| Dfg::new(input, &noop));
    let dfg = dfg.map_err(|e| err(&e))?;
    let (maps, iomap) = timed_us(|| IoMappings::derive_with(&dfg, range.resolved_threads()));
    let (ranges, ranges_us) = timed_us(|| determine_ranges(&dfg, &maps, range));
    let (report, classify) = timed_us(|| OptimizationReport::build(&dfg, &ranges));

    let analysis = Analysis::run_with(flat, range).map_err(|e| err(&e))?;
    if analysis.ranges() != &ranges || analysis.report() != &report {
        return Err(format!(
            "{name}: decomposed ranges/report differ from Analysis::run_with"
        ));
    }
    let (program, lower) = timed_us(|| generate_with(&analysis, style, options.keyed.lower, &noop));
    let (code, emit) = timed_us(|| emit_c_traced(&program, options.keyed.emit, threads, &noop));
    Ok(Stages {
        read,
        flatten,
        dfg: dfg_us,
        iomap,
        ranges: ranges_us,
        classify,
        lower,
        emit,
        blocks: dfg.model().len(),
        elements: (report.total_elements(), report.total_eliminated()),
        program,
        code,
    })
}

/// Per-job samples of the traced run, in microseconds unless noted.
#[derive(Debug, Default)]
pub struct StageSamples {
    /// Decomposed stage timings, one entry per decomposed job.
    pub stages: Vec<Stages>,
    /// `CompileReport::timings.hash` of the cold compile.
    pub hash: Vec<f64>,
    /// `CompileReport::timings.cache` of the cache hit.
    pub cache: Vec<f64>,
    /// Untraced cold wall (`read_slx` + compile).
    pub wall: Vec<f64>,
    /// The same compile with an enabled `Trace` attached to the job.
    pub traced_wall: Vec<f64>,
    /// `read_slx` + session compile of the edited model.
    pub edit: Vec<f64>,
    /// `read_slx` + cache-hit resubmission of the edited model.
    pub hit: Vec<f64>,
    /// Wall minus every stage above, per job.
    pub self_time: Vec<f64>,
    /// Region-cache hits / regions of the edit compile.
    pub region_reuse: Vec<f64>,
    /// Blocks re-analyzed by the edit compile.
    pub dirty_blocks: Vec<f64>,
    /// FRODO-style totals over one full pass: elements before and after
    /// elimination, statements, and `program_flops`.
    pub frodo_totals: Option<(usize, usize, usize, u64)>,
}

impl StageSamples {
    /// The per-job p50 of one stage.
    pub fn p50(&self, f: impl Fn(&Stages) -> f64) -> f64 {
        let v: Vec<f64> = self.stages.iter().map(f).collect();
        stats::median(&v).unwrap_or(f64::NAN)
    }
}

/// Cycles through `jobs` (at least one full pass, then until `budget`
/// passes) running the checked compile sequence, a traced compile, and
/// the stage decomposition of each, whose C must equal the cold
/// compile's byte for byte.
pub fn measure_stages(jobs: &[Job], budget: Duration, tally: &mut Tally) -> StageSamples {
    let cold_svc = cold_service();
    let mut s = StageSamples::default();
    let mut states: Vec<JobState> = jobs.iter().map(|_| JobState::new()).collect();
    let mut totals = (0usize, 0usize, 0usize, 0u64);
    let start = Instant::now();
    for (i, job) in jobs.iter().cycle().enumerate() {
        if i >= jobs.len() && start.elapsed() >= budget {
            break;
        }
        let Some(run) = run_job(job, &mut states[i % jobs.len()], &cold_svc, tally) else {
            continue;
        };
        let (traced, traced_us) = timed_us(|| {
            compile_slx(
                &cold_svc,
                &job.name,
                &job.slx,
                job.style,
                CompileOptions::default(),
                &Trace::new(),
            )
        });
        if let Some(traced) = tally.ok(traced) {
            tally.check(traced.code == run.cold.code, || {
                format!("{}: traced compile C differs from untraced", job.name)
            });
        }
        let Some(stages) = tally.ok(decompose(
            &job.name,
            &job.slx,
            job.style,
            CompileOptions::default(),
        )) else {
            continue;
        };
        if !tally.check(stages.code == run.cold.code, || {
            format!("{}: decomposed C differs from CompileService", job.name)
        }) {
            continue;
        }
        let hash = run.cold.report.timings.hash.as_secs_f64() * 1e6;
        let stats = run.session.stats();
        s.wall.push(run.cold_us[0]);
        s.edit.push(run.edit_us);
        s.hit.extend(run.hit_us);
        s.traced_wall.push(traced_us);
        s.hash.push(hash);
        s.cache
            .push(run.hit.report.timings.cache.as_secs_f64() * 1e6);
        s.self_time.push(run.cold_us[0] - hash - stages.total());
        s.region_reuse
            .push(stats.last_region_hits as f64 / stats.last_region_total.max(1) as f64);
        s.dirty_blocks.push(stats.last_dirty_blocks as f64);
        if i < jobs.len() && job.style == GeneratorStyle::Frodo {
            totals.0 += stages.elements.0;
            totals.1 += stages.elements.1;
            totals.2 += stages.program.stmts.len();
            totals.3 += program_flops(&stages.program);
        }
        if i + 1 == jobs.len() {
            s.frodo_totals = Some(totals);
        }
        s.stages.push(stages);
    }
    s
}

/// `dfg` and `lower` timings (µs, the [`stats::floor`] of `reps`
/// decompositions) and the flattened block count of one job.
///
/// # Errors
///
/// As [`decompose`].
pub fn dfg_lower_floor(job: &Job, reps: usize) -> Result<(usize, f64, f64), String> {
    let mut runs = Vec::new();
    for _ in 0..reps.max(1) {
        runs.push(decompose(
            &job.name,
            &job.slx,
            job.style,
            CompileOptions::default(),
        )?);
    }
    let floor = |f: fn(&Stages) -> f64| {
        stats::floor(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    Ok((runs[0].blocks, floor(|s| s.dfg), floor(|s| s.lower)))
}
