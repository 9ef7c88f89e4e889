//! Strongly typed identifiers for nodes, edges and colors.
//!
//! The simulator and the coloring algorithms pass identifiers around
//! constantly; newtypes prevent mixing them up (a node index used as an edge
//! index is a compile error rather than a silent bug).

use crate::error::GraphError;
use std::fmt;

/// Identifier of a node (vertex) of a [`Graph`](crate::Graph).
///
/// Node identifiers are dense indices in `0..n`. The *distributed* unique
/// identifiers from `{1, ..., poly n}` required by the LOCAL model are a
/// separate concept handled by the simulator (`distsim::IdAssignment`);
/// `NodeId` is purely the array index of the node in the simulated topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of an undirected edge of a [`Graph`](crate::Graph).
///
/// Edge identifiers are dense indices in `0..m` in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

/// A color, used both for vertex and edge colorings.
///
/// Colors are plain `usize` values from a color space `{0, ..., C-1}`.
/// (The paper uses `{1, ..., C}`; we use zero-based indices throughout.)
pub type Color = usize;

impl NodeId {
    /// Creates a node identifier from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`. Loader / ingestion code paths
    /// that may face corrupt or oversized inputs must use
    /// [`NodeId::try_new`] instead so overflow surfaces as a typed error.
    #[inline]
    pub fn new(index: usize) -> Self {
        Self::try_new(index).expect("node index exceeds u32::MAX")
    }

    /// Creates a node identifier from a dense index, returning a typed
    /// error instead of panicking when the index does not fit in `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::IndexOverflow`] if `index > u32::MAX`.
    #[inline]
    pub fn try_new(index: usize) -> Result<Self, GraphError> {
        u32::try_from(index)
            .map(NodeId)
            .map_err(|_| GraphError::IndexOverflow {
                what: "node index",
                index: index as u64,
            })
    }

    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Creates an edge identifier from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`. Loader / ingestion code paths
    /// that may face corrupt or oversized inputs must use
    /// [`EdgeId::try_new`] instead so overflow surfaces as a typed error.
    #[inline]
    pub fn new(index: usize) -> Self {
        Self::try_new(index).expect("edge index exceeds u32::MAX")
    }

    /// Creates an edge identifier from a dense index, returning a typed
    /// error instead of panicking when the index does not fit in `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::IndexOverflow`] if `index > u32::MAX`.
    #[inline]
    pub fn try_new(index: usize) -> Result<Self, GraphError> {
        u32::try_from(index)
            .map(EdgeId)
            .map_err(|_| GraphError::IndexOverflow {
                what: "edge index",
                index: index as u64,
            })
    }

    /// Returns the dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

impl From<usize> for EdgeId {
    fn from(index: usize) -> Self {
        EdgeId::new(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The side of a node in a 2-colored bipartite graph.
///
/// The paper's Section 5 algorithms assume a bipartite graph `G = (U ∪ V, E)`
/// in which every node knows whether it belongs to `U` or to `V`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The `U` side of the bipartition.
    U,
    /// The `V` side of the bipartition.
    V,
}

impl Side {
    /// Returns the opposite side.
    #[inline]
    pub fn opposite(self) -> Side {
        match self {
            Side::U => Side::V,
            Side::V => Side::U,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::U => write!(f, "U"),
            Side::V => write!(f, "V"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(NodeId::from(42usize), id);
        assert_eq!(format!("{id}"), "v42");
    }

    #[test]
    fn edge_id_roundtrip() {
        let id = EdgeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(EdgeId::from(7usize), id);
        assert_eq!(format!("{id}"), "e7");
    }

    #[test]
    fn try_new_rejects_oversized_indices_with_typed_errors() {
        // Regression: these used to be reachable only as `expect` panics,
        // which let a corrupt snapshot header abort the process instead of
        // surfacing a decodable error.
        let too_big = u32::MAX as usize + 1;
        assert_eq!(
            NodeId::try_new(too_big),
            Err(GraphError::IndexOverflow {
                what: "node index",
                index: too_big as u64,
            })
        );
        assert_eq!(
            EdgeId::try_new(too_big),
            Err(GraphError::IndexOverflow {
                what: "edge index",
                index: too_big as u64,
            })
        );
        assert_eq!(NodeId::try_new(u32::MAX as usize), Ok(NodeId(u32::MAX)));
        assert_eq!(EdgeId::try_new(0), Ok(EdgeId(0)));
    }

    #[test]
    fn node_id_ordering_matches_index_order() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(EdgeId::new(0) < EdgeId::new(10));
    }

    #[test]
    fn side_opposite_is_involution() {
        assert_eq!(Side::U.opposite(), Side::V);
        assert_eq!(Side::V.opposite(), Side::U);
        assert_eq!(Side::U.opposite().opposite(), Side::U);
    }

    #[test]
    fn side_display() {
        assert_eq!(format!("{} {}", Side::U, Side::V), "U V");
    }
}
