//! The in-port → source index of a model.

use crate::{InPort, Model, ModelError, OutPort};

/// The producer feeding every input port of a model, looked up in O(1)
/// instead of a scan over the connections.
///
/// Built in one pass over the connection list. A port fed more than once
/// keeps its first source in connection order (what a scan would find).
/// A connection onto a port index its block does not have has no slot and
/// is ignored, as the structural checks have always ignored it.
#[derive(Debug, Clone)]
pub struct SourceIndex {
    /// Slot of each block's first input port (prefix sums of
    /// `num_inputs`); the final entry is the total.
    offsets: Vec<usize>,
    /// First source of each input port, in connection order.
    sources: Vec<Option<OutPort>>,
}

impl SourceIndex {
    /// Indexes every connection of `model`.
    pub fn new(model: &Model) -> Self {
        Self::build(model).0
    }

    /// Indexes `model` and checks that every input port has exactly one
    /// incoming connection.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnconnectedInput`] or
    /// [`ModelError::DuplicateInput`] for the first offending port in
    /// block-then-port order.
    pub(crate) fn checked(model: &Model) -> Result<Self, ModelError> {
        let (index, fed_twice) = Self::build(model);
        for (b, bounds) in index.offsets.windows(2).enumerate() {
            let slots = bounds[0]..bounds[1];
            let ports = index.sources[slots.clone()].iter().zip(&fed_twice[slots]);
            for (p, (source, &twice)) in ports.enumerate() {
                let port = InPort::new(crate::BlockId::from_index(b), p);
                if source.is_none() {
                    return Err(ModelError::UnconnectedInput(port));
                }
                if twice {
                    return Err(ModelError::DuplicateInput(port));
                }
            }
        }
        Ok(index)
    }

    /// The index, and for each slot whether a second connection feeds it.
    fn build(model: &Model) -> (Self, Vec<bool>) {
        let mut offsets = Vec::with_capacity(model.len() + 1);
        let mut total = 0;
        for block in model.blocks() {
            offsets.push(total);
            total += block.kind.num_inputs();
        }
        offsets.push(total);
        let mut index = SourceIndex {
            offsets,
            sources: vec![None; total],
        };
        let mut fed_twice = vec![false; total];
        for c in model.connections() {
            if let Some(slot) = index.slot(c.to) {
                match index.sources[slot] {
                    None => index.sources[slot] = Some(c.from),
                    Some(_) => fed_twice[slot] = true,
                }
            }
        }
        (index, fed_twice)
    }

    fn slot(&self, port: InPort) -> Option<usize> {
        let start = *self.offsets.get(port.block.index())?;
        let end = *self.offsets.get(port.block.index() + 1)?;
        (port.port < end - start).then_some(start + port.port)
    }

    /// The producer feeding an input port, if connected.
    pub fn source_of(&self, port: InPort) -> Option<OutPort> {
        self.slot(port).and_then(|slot| self.sources[slot])
    }
}
