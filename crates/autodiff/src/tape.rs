//! The tape data structure: node storage, ids and the backward sweep.

use gandef_tensor::Tensor;
use std::fmt;

/// Handle to a value recorded on a [`Tape`].
///
/// Ids are only meaningful for the tape that produced them; using an id from
/// another tape is a logic error (caught by bounds/shape panics in debug
/// use, not by the type system).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VarId({})", self.0)
    }
}

/// Maps the upstream gradient, taken by value, to the gradients of the
/// node's parents: `None` for each parent the sweep does not need.
pub(crate) type BackwardFn = Box<dyn Fn(Tensor, &Ctx<'_>) -> Vec<Option<Tensor>>>;

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) parents: Vec<VarId>,
    /// `None` for leaves (inputs and parameters).
    pub(crate) backward: Option<BackwardFn>,
}

/// What a backward closure reads besides the upstream gradient: the forward
/// values of its node and of the node's parents, which stay on the tape, and
/// the needs-grad mask over those parents.
pub(crate) struct Ctx<'a> {
    nodes: &'a [Node],
    node: &'a Node,
    needs: &'a [bool],
}

impl Ctx<'_> {
    /// Number of parents.
    pub(crate) fn arity(&self) -> usize {
        self.node.parents.len()
    }

    /// Forward value of parent `i`.
    pub(crate) fn input(&self, i: usize) -> &Tensor {
        &self.nodes[self.node.parents[i].0].value
    }

    /// Forward value of the node itself.
    pub(crate) fn output(&self) -> &Tensor {
        &self.node.value
    }

    /// Whether the sweep needs a gradient for parent `i`.
    pub(crate) fn wants(&self, i: usize) -> bool {
        self.needs[self.node.parents[i].0]
    }
}

/// A reverse-mode autodiff tape.
///
/// Records primitive operations as they execute; [`Tape::backward_wrt`]
/// then produces the gradient of a scalar node with respect to the leaves
/// the caller asks for, and [`Tape::backward`] with respect to every leaf.
/// See the crate docs for an end-to-end example.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a leaf node holding `value`. Leaves have no parents; their
    /// gradients are read out of [`Gradients`] after a backward pass.
    pub fn leaf(&mut self, value: Tensor) -> VarId {
        self.push(value, Vec::new(), None)
    }

    /// Records a node whose gradient is cut off: the value flows forward,
    /// but backward passes stop here. This is how the GAN trainers freeze
    /// one network while updating the other (Algorithm 1, lines 6 and 11).
    pub fn detach(&mut self, id: VarId) -> VarId {
        let value = self.value(id).clone();
        self.leaf(value)
    }

    /// The forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tape.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.nodes[id.0].value
    }

    pub(crate) fn push(
        &mut self,
        value: Tensor,
        parents: Vec<VarId>,
        backward: Option<BackwardFn>,
    ) -> VarId {
        debug_assert!(parents.iter().all(|p| p.0 < self.nodes.len()));
        self.nodes.push(Node {
            value,
            parents,
            backward,
        });
        VarId(self.nodes.len() - 1)
    }

    /// Runs the backward sweep from scalar node `root`, returning the
    /// gradient of `root` with respect to every leaf it reaches.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a single-element tensor.
    pub fn backward(&self, root: VarId) -> Gradients {
        let leaves: Vec<VarId> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].backward.is_none())
            .map(VarId)
            .collect();
        self.backward_wrt(root, &leaves)
    }

    /// Runs the backward sweep from scalar node `root`, returning the
    /// gradient of `root` with respect to the leaves in `wrt` only.
    ///
    /// One forward pass over the nodes first marks which of them need a
    /// gradient: a wanted leaf, or a node with a parent that needs one.
    /// The reverse sweep then visits only marked nodes, asks each op for
    /// only its marked parents' gradients, and drops every non-leaf
    /// gradient as soon as it has been passed on. A wanted leaf's gradient
    /// is bit-identical to the one [`Tape::backward`] computes: each
    /// marked node receives the same contributions, in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a single-element tensor, or if an id in
    /// `wrt` is not a leaf of this tape.
    pub fn backward_wrt(&self, root: VarId, wrt: &[VarId]) -> Gradients {
        assert_eq!(
            self.nodes[root.0].value.numel(),
            1,
            "backward root must be a scalar, got shape {}",
            self.nodes[root.0].value.shape()
        );
        let mut needs = vec![false; root.0 + 1];
        for &w in wrt {
            assert!(
                self.nodes[w.0].backward.is_none(),
                "backward_wrt: {w:?} is not a leaf"
            );
            if let Some(slot) = needs.get_mut(w.0) {
                *slot = true;
            }
        }
        // Construction order is topological: parents always have smaller
        // indices than children, so one forward pass settles the mask and
        // one reverse pass the gradients.
        for i in 0..needs.len() {
            let node = &self.nodes[i];
            needs[i] = needs[i] || node.parents.iter().any(|p| needs[p.0]);
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        if needs[root.0] {
            grads[root.0] = Some(Tensor::full(self.nodes[root.0].value.shape().dims(), 1.0));
        }
        for i in (0..=root.0).rev() {
            let node = &self.nodes[i];
            let Some(backward) = &node.backward else {
                // A leaf keeps its gradient: only wanted leaves get one.
                continue;
            };
            // Only marked nodes receive a gradient, so this skips the rest.
            let Some(upstream) = grads[i].take() else {
                continue;
            };
            let ctx = Ctx {
                nodes: &self.nodes,
                node,
                needs: &needs,
            };
            let parent_grads = backward(upstream, &ctx);
            debug_assert_eq!(parent_grads.len(), node.parents.len());
            for (parent, g) in node.parents.iter().zip(parent_grads) {
                let Some(g) = g else {
                    debug_assert!(!needs[parent.0], "op skipped a needed parent {parent:?}");
                    continue;
                };
                debug_assert_eq!(
                    g.shape(),
                    self.nodes[parent.0].value.shape(),
                    "gradient shape mismatch for parent {:?}",
                    parent
                );
                match &mut grads[parent.0] {
                    Some(acc) => acc.add_assign(&g),
                    slot @ None => *slot = Some(g),
                }
            }
        }
        Gradients { grads }
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tape({} nodes)", self.nodes.len())
    }
}

/// The result of a backward sweep: the gradients of the swept leaves,
/// keyed by [`VarId`]. Intermediate nodes' gradients are not kept.
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the backward root with respect to leaf `id`, if the sweep
    /// was asked for it and reached it.
    pub fn get(&self, id: VarId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(|g| g.as_ref())
    }

    /// Number of gradients held.
    pub fn len(&self) -> usize {
        self.grads.iter().filter(|g| g.is_some()).count()
    }

    /// Whether the sweep holds no gradient at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes ownership of the gradient for `id`, leaving `None` behind.
    pub fn take(&mut self, id: VarId) -> Option<Tensor> {
        self.grads.get_mut(id.0).and_then(|g| g.take())
    }
}

impl fmt::Debug for Gradients {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gradients({} populated)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        assert_eq!(tape.value(x).as_slice(), &[1.0, 2.0]);
        assert_eq!(tape.len(), 1);
        assert!(!tape.is_empty());
    }

    #[test]
    fn backward_of_leaf_is_identity_seed() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(5.0));
        let grads = tape.backward(x);
        assert_eq!(grads.get(x).unwrap().item(), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be a scalar")]
    fn backward_requires_scalar_root() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[2, 2]));
        tape.backward(x);
    }

    #[test]
    fn detach_blocks_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0));
        let y = tape.square(x);
        let d = tape.detach(y);
        let z = tape.square(d);
        let grads = tape.backward(z);
        // z = (x²)² but the detach cuts the chain: x gets no gradient.
        assert!(grads.get(x).is_none());
        assert_eq!(grads.get(d).unwrap().item(), 2.0 * 9.0);
    }

    #[test]
    fn gradient_accumulates_across_fanout() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(2.0));
        let a = tape.square(x); // 4, da/dx = 4
        let b = tape.square(x); // 4, db/dx = 4
        let s = tape.add(a, b); // 8
        let grads = tape.backward(s);
        assert_eq!(grads.get(x).unwrap().item(), 8.0);
    }

    /// A small conv net with a fan-out branch: the leaves are the input,
    /// the filters, their bias and a dense weight, in that order.
    fn conv_net(tape: &mut Tape) -> ([VarId; 4], VarId) {
        use gandef_tensor::conv::ConvSpec;
        let wave = |dims: &[usize], k: f32| Tensor::from_fn(dims, |i| (i as f32 * k).sin() * 0.5);
        let x = tape.leaf(wave(&[2, 1, 6, 6], 0.37));
        let w = tape.leaf(wave(&[3, 1, 3, 3], 0.71));
        let b = tape.leaf(wave(&[3, 1, 1], 1.3));
        let v = tape.leaf(wave(&[12, 4], 0.53));
        let c = tape.conv2d(x, w, ConvSpec::default());
        let c = tape.add(c, b);
        let r = tape.relu(c);
        let p = tape.maxpool2d(r, 2);
        let f = tape.flatten_batch(p);
        let z = tape.matmul(f, v);
        let t = tape.tanh(z);
        let sq = tape.square(t);
        let m = tape.mul(sq, z);
        let d = tape.sub(m, t);
        let targets = Tensor::from_vec(vec![2, 4], vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        let ce = tape.softmax_cross_entropy(d, &targets);
        let pen = tape.l2_sq_mean_rows(z);
        let loss = tape.add(ce, pen);
        ([x, w, b, v], loss)
    }

    #[test]
    fn backward_wrt_matches_full_sweep_bitwise() {
        use gandef_tensor::accum::{with_accum, Accum};
        for mode in [Accum::F32, Accum::F64] {
            with_accum(mode, || {
                let mut tape = Tape::new();
                let (leaves, loss) = conv_net(&mut tape);
                let full = tape.backward(loss);
                for mask in 1..16u32 {
                    let wanted: Vec<VarId> = (0..4)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| leaves[i])
                        .collect();
                    let part = tape.backward_wrt(loss, &wanted);
                    for leaf in leaves {
                        match part.get(leaf) {
                            Some(g) => {
                                assert!(wanted.contains(&leaf));
                                let reference = full.get(leaf).unwrap();
                                assert_eq!(g.as_slice(), reference.as_slice(), "{leaf:?} {mode:?}");
                            }
                            None => assert!(!wanted.contains(&leaf), "{leaf:?} missing"),
                        }
                    }
                    // Only the wanted leaves' gradients are retained.
                    assert_eq!(part.len(), wanted.len());
                }
                // The full sweep keeps every leaf's gradient and no other.
                assert_eq!(full.len(), 4);
                let kept = (0..tape.len()).filter(|&i| full.grads[i].is_some());
                assert!(kept.into_iter().all(|i| tape.nodes[i].backward.is_none()));
            });
        }
    }

    #[test]
    #[should_panic(expected = "is not a leaf")]
    fn backward_wrt_rejects_non_leaves() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(1.0));
        let y = tape.square(x);
        tape.backward_wrt(y, &[y]);
    }

    #[test]
    fn take_removes_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(1.0));
        let y = tape.square(x);
        let mut grads = tape.backward(y);
        assert!(grads.take(x).is_some());
        assert!(grads.take(x).is_none());
        assert!(grads.get(x).is_none());
    }
}
