//! Named parameter storage and its per-pass binding onto an autodiff tape.

use gandef_autodiff::{Gradients, Tape, VarId};
use gandef_tensor::accum::{self, Accum};
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;

/// Whether a forward pass is for training (dropout active) or evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Training: stochastic layers (dropout) are active.
    Train,
    /// Evaluation: stochastic layers are identity.
    Eval,
}

/// An ordered collection of named parameter tensors.
///
/// Order is insertion order and is stable; optimizers key their per-parameter
/// state on it. Names are unique.
///
/// # Example
///
/// ```
/// use gandef_nn::Params;
/// use gandef_tensor::Tensor;
///
/// let mut p = Params::new();
/// p.insert("w", Tensor::zeros(&[2, 2]));
/// assert_eq!(p.len(), 1);
/// assert_eq!(p.get("w").numel(), 4);
/// ```
#[derive(Clone, Default)]
pub struct Params {
    names: Vec<String>,
    values: Vec<Tensor>,
    index: HashMap<String, usize>,
}

impl Params {
    /// Creates an empty parameter store.
    pub fn new() -> Self {
        Params::default()
    }

    /// Registers a new parameter.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn insert(&mut self, name: &str, value: Tensor) {
        assert!(
            !self.index.contains_key(name),
            "duplicate parameter name {name:?}"
        );
        self.index.insert(name.to_string(), self.values.len());
        self.names.push(name.to_string());
        self.values.push(value);
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters across all tensors.
    pub fn numel(&self) -> usize {
        self.values.iter().map(Tensor::numel).sum()
    }

    /// The parameter tensor registered under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn get(&self, name: &str) -> &Tensor {
        &self.values[self.position(name)]
    }

    /// Mutable access to the parameter registered under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn get_mut(&mut self, name: &str) -> &mut Tensor {
        let i = self.position(name);
        &mut self.values[i]
    }

    /// Positional index of `name` (stable across the store's lifetime).
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn position(&self, name: &str) -> usize {
        *self
            .index
            .get(name)
            // lint:allow(panic) — documented `# Panics` contract; an
            // unknown parameter name is a caller bug.
            .unwrap_or_else(|| panic!("unknown parameter {name:?}"))
    }

    /// Mutable parameter tensor at positional index `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn value_at_mut(&mut self, i: usize) -> &mut Tensor {
        &mut self.values[i]
    }

    /// Whether a parameter named `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Iterates over `(name, tensor)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.names.iter().map(String::as_str).zip(&self.values)
    }

    /// Parameter names in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

impl fmt::Debug for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Params({} tensors, {} scalars)",
            self.len(),
            self.numel()
        )
    }
}

/// Tape bindings for one parameter store inside a [`Session`].
struct StoreBinding {
    ids: Vec<VarId>,
    index: HashMap<String, usize>,
}

/// A single forward/backward pass: a fresh [`Tape`] with every parameter
/// bound as a leaf, plus the pass's [`Mode`] and RNG (for dropout).
///
/// Layers pull their parameter [`VarId`]s from the session by name; after
/// [`Session::backward`], per-parameter gradients come back in store order,
/// ready for an optimizer.
///
/// A session can bind *several* parameter stores, at creation
/// ([`Session::new_multi`]) or later ([`Session::bind`]). The ZK-GanDef
/// classifier update records classifier and discriminator on one tape and
/// backpropagates into the classifier alone (Algorithm 1 of the paper).
pub struct Session {
    /// The autodiff tape recording this pass.
    pub tape: Tape,
    /// Training or evaluation semantics for stochastic layers.
    pub mode: Mode,
    /// RNG for stochastic layers (dropout masks).
    pub rng: Prng,
    /// Accumulation precision in effect when the session was created.
    /// Kernels sample the mode themselves on each call; this field records
    /// what a pass ran under, so checkpoints/reports can attribute results
    /// to a numerics mode.
    pub accum: Accum,
    stores: Vec<StoreBinding>,
}

impl Session {
    /// Binds every parameter in `params` onto a fresh tape.
    pub fn new(params: &Params, mode: Mode, rng: Prng) -> Self {
        Session::new_multi(&[params], mode, rng)
    }

    /// Binds several parameter stores onto one fresh tape. Parameter names
    /// must be unique *across* stores (model namespaces — e.g. `conv1.w`
    /// vs `d1.w` — guarantee this for the paper's architectures).
    pub fn new_multi(stores: &[&Params], mode: Mode, rng: Prng) -> Self {
        let mut sess = Session {
            tape: Tape::new(),
            mode,
            rng,
            accum: accum::accum(),
            stores: Vec::with_capacity(stores.len()),
        };
        for p in stores {
            sess.bind(p);
        }
        sess
    }

    /// Binds one more parameter store onto the tape, after whatever the
    /// session has recorded so far; its gradients come after the earlier
    /// stores' in [`Session::backward_all`]. ZK-GanDef binds its
    /// discriminator this way once the discriminator steps have updated
    /// it, so that the classifier's forward pass is recorded only once per
    /// batch. Names must be unique across stores, as for
    /// [`Session::new_multi`].
    pub fn bind(&mut self, params: &Params) {
        let tape = &mut self.tape;
        self.stores.push(StoreBinding {
            ids: params.values.iter().map(|v| tape.leaf(v.clone())).collect(),
            index: params.index.clone(),
        });
    }

    /// Convenience constructor for evaluation passes (no dropout noise).
    pub fn eval(params: &Params) -> Self {
        Session::new(params, Mode::Eval, Prng::new(0))
    }

    /// The tape id of parameter `name`, searching all bound stores.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown in every store.
    pub fn param(&self, name: &str) -> VarId {
        for store in &self.stores {
            if let Some(&i) = store.index.get(name) {
                return store.ids[i];
            }
        }
        // lint:allow(panic) — documented `# Panics` contract; an unknown
        // parameter name is a caller bug.
        panic!("unknown parameter {name:?}")
    }

    /// Records an input leaf on the tape.
    pub fn input(&mut self, value: Tensor) -> VarId {
        self.tape.leaf(value)
    }

    /// Runs the backward sweep from `root` and extracts per-parameter
    /// gradients for the *first* bound store, in store order (`None` for
    /// parameters the loss does not reach). No gradient is computed for
    /// the other stores or for inputs.
    pub fn backward(&self, root: VarId) -> Vec<Option<Tensor>> {
        self.backward_stores(root, 1).swap_remove(0)
    }

    /// Runs the backward sweep once and extracts per-parameter gradients
    /// for *every* bound store, in binding order. No gradient is computed
    /// for inputs.
    pub fn backward_all(&self, root: VarId) -> Vec<Vec<Option<Tensor>>> {
        self.backward_stores(root, self.stores.len())
    }

    /// One sweep asking for the parameters of the first `count` stores.
    fn backward_stores(&self, root: VarId, count: usize) -> Vec<Vec<Option<Tensor>>> {
        let stores = &self.stores[..count];
        let wrt: Vec<VarId> = stores.iter().flat_map(|s| s.ids.iter().copied()).collect();
        let mut grads: Gradients = self.tape.backward_wrt(root, &wrt);
        stores
            .iter()
            .map(|s| s.ids.iter().map(|&id| grads.take(id)).collect())
            .collect()
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Session({:?}, {:?}, {} stores, {} tape nodes)",
            self.mode,
            self.accum,
            self.stores.len(),
            self.tape.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Params::new();
        p.insert("a", Tensor::ones(&[2]));
        p.insert("b", Tensor::zeros(&[3]));
        assert_eq!(p.len(), 2);
        assert_eq!(p.numel(), 5);
        assert_eq!(p.get("a").sum(), 2.0);
        p.get_mut("b").map_inplace(|_| 7.0);
        assert_eq!(p.get("b").sum(), 21.0);
        assert_eq!(p.names(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_name_rejected() {
        let mut p = Params::new();
        p.insert("a", Tensor::ones(&[1]));
        p.insert("a", Tensor::ones(&[1]));
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn unknown_name_panics() {
        Params::new().get("nope");
    }

    #[test]
    fn session_binds_params_and_collects_grads() {
        let mut p = Params::new();
        p.insert("w", Tensor::from_vec(vec![2], vec![3.0, -2.0]));
        p.insert("unused", Tensor::ones(&[1]));
        let mut sess = Session::eval(&p);
        let w = sess.param("w");
        let sq = sess.tape.square(w);
        let loss = sess.tape.sum_all(sq);
        let grads = sess.backward(loss);
        assert_eq!(grads.len(), 2);
        assert_eq!(grads[0].as_ref().unwrap().as_slice(), &[6.0, -4.0]);
        assert!(grads[1].is_none(), "unreached param has no gradient");
    }

    #[test]
    fn multi_store_session_routes_grads_per_store() {
        let mut pc = Params::new();
        pc.insert("c.w", Tensor::from_vec(vec![1], vec![2.0]));
        let mut pd = Params::new();
        pd.insert("d.w", Tensor::from_vec(vec![1], vec![3.0]));
        let mut sess = Session::new_multi(&[&pc, &pd], Mode::Eval, Prng::new(0));
        // loss = (c·d)² — both stores get gradients from one backward.
        let c = sess.param("c.w");
        let d = sess.param("d.w");
        let prod = sess.tape.mul(c, d);
        let sq = sess.tape.square(prod);
        let loss = sess.tape.sum_all(sq);
        let all = sess.backward_all(loss);
        assert_eq!(all.len(), 2);
        // d/dc (cd)² = 2cd² = 2·2·9 = 36; d/dd = 2c²d = 2·4·3 = 24.
        assert_eq!(all[0][0].as_ref().unwrap().item(), 36.0);
        assert_eq!(all[1][0].as_ref().unwrap().item(), 24.0);
    }

    #[test]
    fn session_input_leaf_gets_gradient_via_tape() {
        let p = Params::new();
        let mut sess = Session::eval(&p);
        let x = sess.input(Tensor::scalar(4.0));
        let y = sess.tape.square(x);
        let grads = sess.tape.backward(y);
        assert_eq!(grads.get(x).unwrap().item(), 8.0);
    }
}
