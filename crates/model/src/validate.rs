//! Structural model validation.

use crate::{BlockKind, Model, ModelError, SourceIndex};

/// Validates a model's structural well-formedness:
///
/// 1. every input port has exactly one incoming connection,
/// 2. `Inport`/`Outport` indices are unique and contiguous from zero,
/// 3. each subsystem's inner port blocks match its declared arity, and
/// 4. shape inference succeeds on the flattened model.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate(model: &Model) -> Result<(), ModelError> {
    check_structure(model)?;

    // (4) the whole model must type-check
    model.flattened(&frodo_obs::Trace::noop())?.infer_shapes()?;
    Ok(())
}

/// Checks (1)–(3) of [`validate`], returning the source index built for
/// the connectivity check.
pub(crate) fn check_structure(model: &Model) -> Result<SourceIndex, ModelError> {
    // (1) connectivity — duplicate inputs are rejected at connect() time for
    // builder-constructed models but can arrive via file formats.
    let sources = SourceIndex::checked(model)?;

    // (2) port-block index contiguity
    check_port_indices(model)?;

    // (3) subsystem consistency
    for (id, block) in model.iter() {
        if let BlockKind::Subsystem(inner) = &block.kind {
            check_port_indices(inner).map_err(|_| ModelError::BadSubsystem {
                block: id,
                reason: "inner Inport/Outport indices are not contiguous".into(),
            })?;
            inner.validate().map_err(|e| ModelError::BadSubsystem {
                block: id,
                reason: e.to_string(),
            })?;
        }
    }
    Ok(sources)
}

fn check_port_indices(model: &Model) -> Result<(), ModelError> {
    let mut in_idx: Vec<usize> = model
        .blocks()
        .iter()
        .filter_map(|b| match b.kind {
            BlockKind::Inport { index, .. } => Some(index),
            _ => None,
        })
        .collect();
    let mut out_idx: Vec<usize> = model
        .blocks()
        .iter()
        .filter_map(|b| match b.kind {
            BlockKind::Outport { index } => Some(index),
            _ => None,
        })
        .collect();
    in_idx.sort_unstable();
    out_idx.sort_unstable();
    for (expect, &got) in in_idx.iter().enumerate() {
        if got != expect {
            let offender = model.inport(got).or_else(|| model.inport(expect));
            return Err(ModelError::BadParameter {
                block: offender.unwrap_or(crate::BlockId::from_index(0)),
                reason: format!("Inport indices not contiguous: expected {expect}, found {got}"),
            });
        }
    }
    for (expect, &got) in out_idx.iter().enumerate() {
        if got != expect {
            let offender = model.outport(got).or_else(|| model.outport(expect));
            return Err(ModelError::BadParameter {
                block: offender.unwrap_or(crate::BlockId::from_index(0)),
                reason: format!("Outport indices not contiguous: expected {expect}, found {got}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, InPort, Tensor};
    use frodo_ranges::Shape;

    #[test]
    fn valid_model_passes() {
        let mut m = Model::new("ok");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, o, 0).unwrap();
        assert!(m.validate().is_ok());
    }

    #[test]
    fn unconnected_input_fails() {
        let mut m = Model::new("bad");
        m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        assert!(matches!(m.validate(), Err(ModelError::UnconnectedInput(_))));
    }

    #[test]
    fn gapped_inport_indices_fail() {
        let mut m = Model::new("bad");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 1,
                shape: Shape::Scalar,
            },
        ));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, o, 0).unwrap();
        assert!(matches!(m.validate(), Err(ModelError::BadParameter { .. })));
    }

    #[test]
    fn shape_errors_surface_through_validate() {
        let mut m = Model::new("bad");
        let a = m.add(Block::new(
            "a",
            BlockKind::Constant {
                value: Tensor::vector(vec![1.0; 3]),
            },
        ));
        let b = m.add(Block::new(
            "b",
            BlockKind::Constant {
                value: Tensor::vector(vec![1.0; 4]),
            },
        ));
        let add = m.add(Block::new("add", BlockKind::Add));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(a, 0, add, 0).unwrap();
        m.connect(b, 0, add, 1).unwrap();
        m.connect(add, 0, o, 0).unwrap();
        assert!(matches!(
            m.validate(),
            Err(ModelError::ShapeMismatch { .. })
        ));
    }

    /// in0 -> add.0, in1 -> add.1, add -> out, with `extra` wires
    /// appended unchecked (as no builder call would allow).
    fn wired_add(extra: &[(usize, usize, usize)]) -> (Model, crate::BlockId) {
        let mut m = Model::new("wired");
        let a = m.add(Block::new(
            "a",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let b = m.add(Block::new(
            "b",
            BlockKind::Inport {
                index: 1,
                shape: Shape::Vector(4),
            },
        ));
        let add = m.add(Block::new("add", BlockKind::Add));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(a, 0, add, 0).unwrap();
        m.connect(b, 0, add, 1).unwrap();
        m.connect(add, 0, o, 0).unwrap();
        for &(src, dst, port) in extra {
            m.push_connection(crate::Connection {
                from: crate::OutPort::new(crate::BlockId::from_index(src), 0),
                to: InPort::new(crate::BlockId::from_index(dst), port),
            });
        }
        (m, add)
    }

    #[test]
    fn port_fed_twice_is_a_duplicate_input() {
        let (m, add) = wired_add(&[(0, 2, 1)]);
        assert_eq!(
            m.validate(),
            Err(ModelError::DuplicateInput(InPort::new(add, 1)))
        );
        // the first wire in connection order is the port's source
        let sources = SourceIndex::new(&m);
        assert_eq!(
            sources.source_of(InPort::new(add, 1)),
            m.source_of(InPort::new(add, 1))
        );
    }

    #[test]
    fn first_offending_port_wins_in_block_then_port_order() {
        // add.1 is fed twice; the unconnected gain comes after it
        let (mut m, add) = wired_add(&[(1, 2, 1)]);
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 1.0 }));
        assert_eq!(
            m.validate(),
            Err(ModelError::DuplicateInput(InPort::new(add, 1)))
        );
        let (mut m, _) = wired_add(&[]);
        m.add(Block::new("g", BlockKind::Gain { gain: 1.0 }));
        assert_eq!(
            m.validate(),
            Err(ModelError::UnconnectedInput(InPort::new(g, 0)))
        );
    }

    #[test]
    fn wire_onto_a_missing_port_is_ignored_as_before() {
        // the add has two inputs; a wire onto its third has no port to
        // feed, so the connectivity check skips it and the index has no
        // slot for it
        let (m, add) = wired_add(&[(0, 2, 2)]);
        assert_eq!(m.validate(), Ok(()));
        assert_eq!(SourceIndex::new(&m).source_of(InPort::new(add, 2)), None);
    }

    #[test]
    fn subsystem_validation_recurses() {
        let mut inner = Model::new("inner");
        inner.add(Block::new("g", BlockKind::Gain { gain: 1.0 })); // unconnected
        let mut m = Model::new("outer");
        m.add(Block::new("s", BlockKind::Subsystem(Box::new(inner))));
        assert!(matches!(m.validate(), Err(ModelError::BadSubsystem { .. })));
    }
}
