use crate::SparseError;

/// A permutation of `n` indices, stored in both directions.
///
/// Reordering algorithms naturally produce an *order*: the sequence of
/// old indices in their new positions (`new_to_old`). Applying a
/// permutation to CSR column indices instead needs the inverse mapping
/// (`old_to_new`). Both are kept so either application is O(1) per
/// element.
///
/// Conventions:
/// - `new_to_old[k]` is the old index of the element placed at new
///   position `k` (the "permutation vector" of the reordering
///   literature).
/// - `old_to_new[i]` is the new position of old index `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_to_old: Vec<u32>,
    old_to_new: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `n` indices.
    pub fn identity(n: usize) -> Self {
        let v: Vec<u32> = (0..n as u32).collect();
        Permutation {
            new_to_old: v.clone(),
            old_to_new: v,
        }
    }

    /// Build from an order vector: `order[k]` = old index at new position `k`.
    ///
    /// Returns an error if `order` is not a permutation of `0..order.len()`.
    pub fn from_new_to_old(order: Vec<u32>) -> Result<Self, SparseError> {
        let n = order.len();
        let mut inv = vec![u32::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            let old = old as usize;
            if old >= n {
                return Err(SparseError::InvalidStructure(format!(
                    "permutation entry {old} out of range for length {n}"
                )));
            }
            if inv[old] != u32::MAX {
                return Err(SparseError::InvalidStructure(format!(
                    "duplicate permutation entry {old}"
                )));
            }
            inv[old] = new as u32;
        }
        Ok(Permutation {
            new_to_old: order,
            old_to_new: inv,
        })
    }

    /// Build from an inverse-order vector: `pos[i]` = new position of old
    /// index `i`.
    pub fn from_old_to_new(pos: Vec<u32>) -> Result<Self, SparseError> {
        let p = Permutation::from_new_to_old(pos)?;
        Ok(Permutation {
            new_to_old: p.old_to_new,
            old_to_new: p.new_to_old,
        })
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// True for the zero-length permutation.
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// Old index placed at new position `new`.
    #[inline]
    pub fn new_to_old(&self, new: usize) -> usize {
        self.new_to_old[new] as usize
    }

    /// New position of old index `old`.
    #[inline]
    pub fn old_to_new(&self, old: usize) -> usize {
        self.old_to_new[old] as usize
    }

    /// The order vector (`new -> old`).
    pub fn order(&self) -> &[u32] {
        &self.new_to_old
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        Permutation {
            new_to_old: self.old_to_new.clone(),
            old_to_new: self.new_to_old.clone(),
        }
    }

    /// Reverse the order (used to turn Cuthill-McKee into *Reverse*
    /// Cuthill-McKee).
    pub fn reversed(&self) -> Permutation {
        let mut order = self.new_to_old.clone();
        order.reverse();
        Permutation::from_new_to_old(order).expect("reversing preserves validity")
    }

    /// Compose: apply `self` first, then `other` (both permute new
    /// positions). The result maps old indices through both.
    pub fn then(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "length mismatch in composition");
        let n = self.len();
        // final new position k holds other.new_to_old(k) in self's
        // numbering, which is self.new_to_old(...) in the original.
        let mut order = Vec::with_capacity(n);
        for k in 0..n {
            order.push(self.new_to_old[other.new_to_old(k)]);
        }
        Permutation::from_new_to_old(order).expect("composition of permutations is a permutation")
    }

    /// True if this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.new_to_old
            .iter()
            .enumerate()
            .all(|(i, &v)| i as u32 == v)
    }

    /// Permute a dense slice: `out[new] = data[old]`.
    pub fn apply_to_slice<T: Copy>(&self, data: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        self.apply_to_slice_into(data, &mut out);
        out
    }

    /// [`Permutation::apply_to_slice`] into a caller-owned buffer,
    /// whose previous contents are discarded: a buffer that is reused
    /// allocates only when it has to grow.
    pub fn apply_to_slice_into<T: Copy>(&self, data: &[T], out: &mut Vec<T>) {
        assert_eq!(data.len(), self.len(), "slice length mismatch");
        out.clear();
        out.extend(self.new_to_old.iter().map(|&old| data[old as usize]));
    }

    /// Apply the inverse permutation to a dense slice:
    /// `out[old] = data[new]` where `new = old_to_new[old]`.
    ///
    /// This undoes [`Permutation::apply_to_slice`], which is how a
    /// serving layer returns an SpMV result computed in reordered index
    /// space back to the caller's original ordering.
    pub fn apply_inverse_to_slice<T: Copy>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.len(), "slice length mismatch");
        self.old_to_new
            .iter()
            .map(|&new| data[new as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(4);
        assert!(p.is_identity());
        assert_eq!(p.len(), 4);
        for i in 0..4 {
            assert_eq!(p.new_to_old(i), i);
            assert_eq!(p.old_to_new(i), i);
        }
    }

    #[test]
    fn from_order_and_inverse_agree() {
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        assert_eq!(p.new_to_old(0), 2);
        assert_eq!(p.old_to_new(2), 0);
        let inv = p.inverse();
        assert_eq!(inv.new_to_old(0), p.old_to_new(0));
        assert!(p.then(&inv.inverse().inverse()).len() == 3);
    }

    #[test]
    fn invalid_orders_rejected() {
        assert!(Permutation::from_new_to_old(vec![0, 0]).is_err());
        assert!(Permutation::from_new_to_old(vec![0, 5]).is_err());
        assert!(Permutation::from_old_to_new(vec![1, 1, 0]).is_err());
    }

    #[test]
    fn reversed_reverses_order() {
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        let r = p.reversed();
        assert_eq!(r.order(), &[1, 0, 2]);
    }

    #[test]
    fn compose_applies_in_sequence() {
        // self: order [1,2,0]; other: reverse [2,1,0]
        let p = Permutation::from_new_to_old(vec![1, 2, 0]).unwrap();
        let q = Permutation::from_new_to_old(vec![2, 1, 0]).unwrap();
        let c = p.then(&q);
        // position k of c = p.new_to_old(q.new_to_old(k))
        assert_eq!(c.order(), &[0, 2, 1]);
    }

    #[test]
    fn apply_to_slice_permutes_dense_data() {
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        let data = [10.0, 20.0, 30.0];
        assert_eq!(p.apply_to_slice(&data), vec![30.0, 10.0, 20.0]);
    }

    #[test]
    fn apply_to_slice_into_refills_a_reused_buffer() {
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        let mut out = vec![7.0; 5];
        p.apply_to_slice_into(&[10.0, 20.0, 30.0], &mut out);
        assert_eq!(out, vec![30.0, 10.0, 20.0]);
        let buffer = out.as_ptr();
        p.apply_to_slice_into(&[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, vec![3.0, 1.0, 2.0]);
        assert_eq!(out.as_ptr(), buffer, "a large-enough buffer is reused");
    }

    #[test]
    fn apply_inverse_undoes_apply() {
        let p = Permutation::from_new_to_old(vec![3, 1, 0, 2]).unwrap();
        let data = [1.5, 2.5, 3.5, 4.5];
        let permuted = p.apply_to_slice(&data);
        assert_eq!(p.apply_inverse_to_slice(&permuted), data.to_vec());
        // And the other way round.
        let unpermuted = p.apply_inverse_to_slice(&data);
        assert_eq!(p.apply_to_slice(&unpermuted), data.to_vec());
    }

    #[test]
    fn inverse_of_inverse_is_original() {
        let p = Permutation::from_new_to_old(vec![3, 1, 0, 2]).unwrap();
        assert_eq!(p.inverse().inverse(), p);
    }
}
