//! The front end does each job once per compile: one flatten, one source
//! index, one shape inference. These tests pin the "once" and the
//! equivalences the linear-time front end rests on.

use frodo::benchmodels::{self, random::random_model};
use frodo::driver::CompileSession;
use frodo::graph::toposort;
use frodo::model::{BlockId, InPort};
use frodo::prelude::*;

/// The flatten spans of a trace, each with its `blocks_flattened` counter.
fn flatten_spans(trace: &Trace) -> Vec<u64> {
    let snap = trace.snapshot();
    snap.spans
        .iter()
        .filter(|s| s.name == "flatten")
        .map(|s| {
            snap.counters
                .iter()
                .filter(|c| c.span == s.id && c.name == "blocks_flattened")
                .map(|c| c.value)
                .sum()
        })
        .collect()
}

/// Maintenance is the Table-1 model built from subsystems.
fn maintenance() -> (Model, u64) {
    let model = benchmodels::by_name("Maintenance")
        .expect("bundled benchmark")
        .model;
    assert!(!model.is_flat(), "Maintenance has subsystems");
    let flat_len = model.flattened(&Trace::noop()).unwrap().len() as u64;
    (model, flat_len)
}

#[test]
fn driver_compile_flattens_exactly_once() {
    let (model, flat_len) = maintenance();
    let trace = Trace::new();
    let service = CompileService::new(ServiceConfig {
        no_cache: true,
        ..ServiceConfig::default()
    });
    service
        .compile(
            JobSpec::from_model("Maintenance", model, GeneratorStyle::Frodo).with_trace(&trace),
        )
        .expect("benchmark compiles");
    assert_eq!(flatten_spans(&trace), vec![flat_len]);
}

#[test]
fn session_compile_flattens_exactly_once() {
    let (model, flat_len) = maintenance();
    let trace = Trace::new();
    let mut session = CompileSession::builder(GeneratorStyle::Frodo).build();
    session
        .compile("Maintenance", model, &trace)
        .expect("benchmark compiles");
    assert_eq!(flatten_spans(&trace), vec![flat_len]);
}

#[test]
fn flattening_a_flat_model_is_the_identity() {
    for bench in benchmodels::all() {
        let flat = bench.model.flattened(&Trace::noop()).unwrap();
        assert!(flat.is_flat(), "{}", bench.name);
        assert_eq!(
            flat.flattened(&Trace::noop()).unwrap(),
            flat,
            "{}",
            bench.name
        );
        // graph construction takes a flat model as is, without a flatten
        let trace = Trace::new();
        let dfg = Dfg::new(flat.clone(), &trace).unwrap();
        assert_eq!(dfg.model(), &flat, "{}", bench.name);
        assert!(flatten_spans(&trace).is_empty(), "{}", bench.name);
    }
}

/// The scheduler's original form: Kahn's algorithm picking the smallest
/// ready id by a linear scan over every block, once per placed block.
fn linear_scan_toposort(model: &Model) -> Option<Vec<BlockId>> {
    let n = model.len();
    let mut indegree = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in model.connections() {
        if matches!(model.block(c.from.block).kind, BlockKind::UnitDelay { .. }) {
            continue;
        }
        succs[c.from.block.index()].push(c.to.block.index());
        indegree[c.to.block.index()] += 1;
    }
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while let Some(i) = (0..n).find(|&i| !placed[i] && indegree[i] == 0) {
        placed[i] = true;
        order.push(BlockId::from_index(i));
        for &d in &succs[i] {
            indegree[d] -= 1;
        }
    }
    (order.len() == n).then_some(order)
}

#[test]
fn toposort_matches_the_linear_scan_oracle() {
    let models = (1..=5).map(|seed| random_model(seed, 500)).chain(
        benchmodels::all()
            .into_iter()
            .map(|b| b.model.flattened(&Trace::noop()).unwrap()),
    );
    for model in models {
        let order = toposort(&model).expect("benchmarks schedule");
        assert_eq!(
            Some(order),
            linear_scan_toposort(&model),
            "{}",
            model.name()
        );
    }
}

#[test]
fn unconnected_input_is_reported_at_its_port() {
    let mut m = Model::new("dangling");
    let i = m.add(Block::new(
        "i",
        BlockKind::Inport {
            index: 0,
            shape: Shape::Vector(4),
        },
    ));
    let add = m.add(Block::new("add", BlockKind::Add));
    let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
    m.connect(i, 0, add, 0).unwrap();
    m.connect(add, 0, o, 0).unwrap();
    let unconnected = ModelError::UnconnectedInput(InPort::new(add, 1));
    assert_eq!(m.validate(), Err(unconnected.clone()));
    assert_eq!(Dfg::new(m, &Trace::noop()).unwrap_err(), unconnected);
}
