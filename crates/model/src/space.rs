//! Spatial locality: where entities are, and what is "near".
//!
//! "Locality emerges as a key contextual characteristic" (§I, §VII). The
//! model is a flat 2-D plane with metric distance — enough to express
//! device mobility between edges, without importing a GIS.

use std::collections::BTreeMap;

/// A point on the deployment plane, in abstract meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Location {
    /// East–west coordinate.
    pub x: f64,
    /// North–south coordinate.
    pub y: f64,
}

impl Location {
    /// Creates a location.
    pub fn new(x: f64, y: f64) -> Self {
        Location { x, y }
    }

    /// Euclidean distance to another location.
    pub fn distance_to(&self, other: &Location) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Tracks the location of every placed entity (keyed by an opaque entity id
/// chosen by the caller, typically a `ProcessId` index).
///
/// # Examples
///
/// ```
/// use riot_model::{Location, SpatialIndex};
///
/// let mut idx = SpatialIndex::new();
/// idx.place(1, Location::new(0.0, 0.0));
/// idx.place(2, Location::new(100.0, 0.0));
/// assert_eq!(idx.nearest(&Location::new(10.0, 0.0)), Some(1));
/// assert_eq!(idx.nearest(&Location::new(90.0, 0.0)), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpatialIndex {
    positions: BTreeMap<u64, Location>,
}

impl SpatialIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        SpatialIndex::default()
    }

    /// Places (or moves) an entity.
    pub fn place(&mut self, entity: u64, at: Location) {
        self.positions.insert(entity, at);
    }

    /// The entity nearest to a point (ties broken by lowest id), or `None`
    /// when the index is empty.
    pub fn nearest(&self, to: &Location) -> Option<u64> {
        self.positions
            .iter()
            .min_by(|(ia, la), (ib, lb)| {
                la.distance_to(to)
                    .total_cmp(&lb.distance_to(to))
                    .then(ia.cmp(ib))
            })
            .map(|(id, _)| *id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Location::new(0.0, 0.0);
        let b = Location::new(3.0, 4.0);
        assert_eq!(a.distance_to(&b), 5.0);
        assert_eq!(b.distance_to(&a), 5.0);
        assert_eq!(a.distance_to(&a), 0.0);
    }

    #[test]
    fn nearest_breaks_ties_by_id() {
        let mut idx = SpatialIndex::new();
        idx.place(4, Location::new(1.0, 0.0));
        idx.place(3, Location::new(-1.0, 0.0));
        assert_eq!(idx.nearest(&Location::default()), Some(3));
        // Placing again moves the entity.
        idx.place(3, Location::new(-5.0, 0.0));
        assert_eq!(idx.nearest(&Location::default()), Some(4));
        assert_eq!(SpatialIndex::new().nearest(&Location::default()), None);
    }
}
