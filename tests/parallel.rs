//! Determinism contract of the intra-model parallel hot path: every range
//! engine computes identical `Ranges`, and the threaded emitter produces
//! byte-identical C, on every bundled benchmark model and on large random
//! models — for any thread count.

use frodo::codegen::{emit_c_threaded, emit_c_with, generate, CEmitOptions, GeneratorStyle};
use frodo::core::{determine_ranges, IoMappings, RangeEngine, RangeOptions};
use frodo::graph::Dfg;
use frodo::model::Model;
use frodo::prelude::{Analysis, CompileOptions, CompileService, JobSpec, ServiceConfig};

fn subjects() -> Vec<(String, Model)> {
    let mut out: Vec<(String, Model)> = frodo::benchmodels::all()
        .into_iter()
        .map(|b| (b.name.to_string(), b.model))
        .collect();
    for (seed, size) in [(3, 60), (11, 500)] {
        out.push((
            format!("random_s{seed}_n{size}"),
            frodo::benchmodels::random::random_model(seed, size),
        ));
    }
    out
}

#[test]
fn all_three_engines_agree_on_every_benchmark_model() {
    for (name, model) in subjects() {
        let dfg = Dfg::new(
            model.flattened(&frodo_obs::Trace::noop()).unwrap(),
            &frodo_obs::Trace::noop(),
        )
        .unwrap();
        let maps = IoMappings::derive(&dfg);
        for dead_ends in [false, true] {
            let base = RangeOptions {
                engine: RangeEngine::Recursive,
                eliminate_dead_ends: dead_ends,
                threads: 0,
            };
            let reference = determine_ranges(&dfg, &maps, base);
            let iterative = determine_ranges(
                &dfg,
                &maps,
                RangeOptions {
                    engine: RangeEngine::Iterative,
                    ..base
                },
            );
            assert_eq!(reference, iterative, "{name}: iterative diverged");
            for threads in [1, 2, 4, 7] {
                let parallel = determine_ranges(
                    &dfg,
                    &maps,
                    RangeOptions {
                        engine: RangeEngine::Parallel,
                        threads,
                        ..base
                    },
                );
                assert_eq!(
                    reference, parallel,
                    "{name}: parallel engine diverged at {threads} threads \
                     (dead_ends = {dead_ends})"
                );
            }
        }
    }
}

#[test]
fn threaded_emission_is_byte_identical_on_every_benchmark_model() {
    for (name, model) in subjects() {
        let analysis = Analysis::run(model).unwrap();
        for style in GeneratorStyle::ALL {
            let program = generate(&analysis, style, &frodo_obs::Trace::noop());
            for opts in [
                CEmitOptions::default(),
                CEmitOptions {
                    shared_conv_helper: true,
                    ..Default::default()
                },
                CEmitOptions {
                    vectorize: frodo::codegen::VectorMode::Batch(8),
                    ..Default::default()
                },
            ] {
                let sequential = emit_c_with(&program, opts);
                for threads in [1, 2, 4, 7] {
                    let threaded = emit_c_threaded(&program, opts, threads);
                    assert_eq!(
                        threaded,
                        sequential,
                        "{name}/{}: emission diverged at {threads} threads",
                        style.label()
                    );
                }
            }
        }
    }
}

#[test]
fn compile_service_output_is_invariant_under_intra_threads() {
    let service = CompileService::new(ServiceConfig {
        no_cache: true,
        ..Default::default()
    });
    for (name, model) in subjects().into_iter().take(4) {
        let mut outputs = Vec::new();
        for intra_threads in [1, 4] {
            let spec = JobSpec::from_model(&name, model.clone(), GeneratorStyle::Frodo)
                .with_options(
                    CompileOptions::builder()
                        .intra_threads(intra_threads)
                        .build(),
                );
            outputs.push(service.compile(spec).unwrap());
        }
        assert_eq!(
            outputs[0].code, outputs[1].code,
            "{name}: driver output changed with intra_threads"
        );
        // the thread budget must not split the artifact cache
        assert_eq!(outputs[0].report.digest, outputs[1].report.digest);
    }
}

#[test]
fn default_budget_runs_the_requested_engine_on_one_thread() {
    // auto (`intra_threads: 0`) resolves to one thread on every host, so
    // default compiles and sessions run the requested engine with
    // sequential I/O-mapping derivation and emission
    let service = CompileService::new(ServiceConfig {
        no_cache: true,
        ..Default::default()
    });
    for bench in frodo::benchmodels::all() {
        let mut traces = Vec::new();
        for engine in [RangeEngine::Recursive, RangeEngine::Iterative] {
            let trace = frodo_obs::Trace::new();
            let options = CompileOptions::builder().engine(engine).build();
            let spec = JobSpec::from_model(bench.name, bench.model.clone(), GeneratorStyle::Frodo)
                .with_options(options)
                .with_trace(&trace);
            service.compile(spec).unwrap();
            traces.push(trace);
        }
        let trace = frodo_obs::Trace::new();
        let mut session = frodo::driver::CompileSession::builder(GeneratorStyle::Frodo).build();
        session
            .compile(bench.name, bench.model.clone(), &trace)
            .unwrap();
        traces.push(trace);
        for t in &traces {
            assert_eq!(t.counter_total("iomap_threads"), 1, "{}", bench.name);
            assert_eq!(t.counter_total("emit_threads"), 1, "{}", bench.name);
            assert_eq!(t.counter_total("analysis_levels"), 0, "{}", bench.name);
        }
    }
}
