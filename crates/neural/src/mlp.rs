//! A small fully-connected network with ReLU hidden layers, trained with
//! stochastic gradient descent.
//!
//! This is the *offline* half of the paper's DQN: training happens in
//! floating point on an unconstrained machine; the result is then quantized
//! ([`crate::QuantizedNetwork`]) for execution on the coordinator.
//!
//! Each [`Layer`] stores its weights **input-major** (`w[i * outputs + o]`),
//! so the forward pass adds one input's contribution to a block of up to
//! eight outputs at once, which the compiler turns into SIMD lanes. Every
//! output is still its bias plus `w * x` for the inputs in ascending order,
//! the exact sequence of roundings of a row-major dot product: no add is
//! reassociated, Rust never fuses a multiply and an add, and a SIMD lane
//! rounds exactly like the scalar instruction. Only this module knows the
//! layout; the text format and the quantized table read rows through
//! [`Layer::row`] and build layers through [`Layer::from_rows`]. Training
//! reuses a caller-owned [`MlpWorkspace`], so a warm step allocates nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[cfg(test)]
mod reference;

/// Activation function applied by a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit (hidden layers).
    Relu,
    /// Identity (output layer — Q-values are unbounded).
    Linear,
}

impl Activation {
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Linear => x,
        }
    }

    /// The derivative at a pre-activation. ReLU's output is positive exactly
    /// where its input is, so the output gives the same value.
    fn derivative(self, pre_activation: f32) -> f32 {
        match self {
            Activation::Relu => {
                if pre_activation > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Linear => 1.0,
        }
    }
}

/// One fully-connected layer.
#[derive(Debug, PartialEq)]
pub struct Layer {
    /// Input-major weights: `weights[i * outputs + o]` connects input `i`
    /// to output `o`, so each input's fan-out is contiguous.
    weights: Vec<f32>,
    /// One bias per output neuron.
    biases: Vec<f32>,
    inputs: usize,
    outputs: usize,
    activation: Activation,
}

impl Clone for Layer {
    fn clone(&self) -> Self {
        Layer {
            weights: self.weights.clone(),
            biases: self.biases.clone(),
            ..*self
        }
    }

    /// Reuses `self`'s buffers, so syncing a same-shaped network allocates
    /// nothing.
    fn clone_from(&mut self, source: &Self) {
        self.weights.clone_from(&source.weights);
        self.biases.clone_from(&source.biases);
        self.inputs = source.inputs;
        self.outputs = source.outputs;
        self.activation = source.activation;
    }
}

impl Layer {
    fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut StdRng) -> Self {
        // He initialization, appropriate for ReLU networks, drawn row by row.
        let std = (2.0 / inputs as f32).sqrt();
        let rows: Vec<f32> = (0..inputs * outputs)
            .map(|_| rng.gen_range(-std..std))
            .collect();
        Layer::from_rows(inputs, outputs, activation, &rows, vec![0.0; outputs])
            // lint: allow(P001) -- Mlp::new asserts positive sizes, and He-init draws are finite
            .expect("a He-initialized layer is valid")
    }

    /// Builds a layer from row-major weights: `rows[o * inputs + i]`, one
    /// row per output, the order of the text format and the quantized table.
    ///
    /// # Errors
    ///
    /// Returns the reason if a size is zero, the weight or bias count does
    /// not match the shape, or a value is not finite.
    pub fn from_rows(
        inputs: usize,
        outputs: usize,
        activation: Activation,
        rows: &[f32],
        biases: Vec<f32>,
    ) -> Result<Layer, &'static str> {
        if inputs == 0 || outputs == 0 {
            return Err("layer sizes must be positive");
        }
        if inputs.checked_mul(outputs) != Some(rows.len()) {
            return Err("weight count does not match the layer shape");
        }
        if biases.len() != outputs {
            return Err("bias count does not match the layer shape");
        }
        if !rows.iter().chain(&biases).all(|v| v.is_finite()) {
            return Err("weights and biases must be finite");
        }
        let mut weights = vec![0.0; rows.len()];
        for (o, row) in rows.chunks_exact(inputs).enumerate() {
            for (i, &w) in row.iter().enumerate() {
                weights[i * outputs + o] = w;
            }
        }
        Ok(Layer {
            weights,
            biases,
            inputs,
            outputs,
            activation,
        })
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Activation applied to this layer's outputs.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// One bias per output neuron.
    pub fn biases(&self) -> &[f32] {
        &self.biases
    }

    /// The weights into output `o`, in input order: row `o` of the
    /// row-major weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `o` is not below [`Layer::outputs`].
    pub fn row(&self, o: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(o < self.outputs, "output index out of range");
        self.weights[o..].iter().step_by(self.outputs).copied()
    }

    // lint: hot-begin
    /// `out[o] = activation(biases[o] + Σ weights[i][o] * x[i])` in blocks of
    /// 8, then 4, then single outputs.
    fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        let mut o = 0;
        while o + 8 <= self.outputs {
            self.forward_block::<8>(x, o, out);
            o += 8;
        }
        if o + 4 <= self.outputs {
            self.forward_block::<4>(x, o, out);
            o += 4;
        }
        while o < self.outputs {
            self.forward_block::<1>(x, o, out);
            o += 1;
        }
    }

    /// Outputs `o..o + N`: each accumulator starts at its bias and adds
    /// `w * x` for the inputs in ascending order.
    fn forward_block<const N: usize>(&self, x: &[f32], o: usize, out: &mut [f32]) {
        let mut acc = [0.0f32; N];
        acc.copy_from_slice(&self.biases[o..o + N]);
        for (fan_out, &xi) in self.weights.chunks_exact(self.outputs).zip(x) {
            for (a, &w) in acc.iter_mut().zip(&fan_out[o..o + N]) {
                *a += w * xi;
            }
        }
        for (y, a) in out[o..o + N].iter_mut().zip(acc) {
            *y = self.activation.apply(a);
        }
    }

    /// Writes into `below` the delta this layer's `delta` propagates to its
    /// inputs `x`, the outputs of a layer activated by `below_activation`.
    /// Each entry sums `w * d` over the non-zero deltas in ascending output
    /// order, starting from 0.0, and is then scaled by the derivative.
    fn backpropagate(
        &self,
        delta: &[f32],
        x: &[f32],
        below_activation: Activation,
        below: &mut [f32],
    ) {
        let fan_outs = self.weights.chunks_exact(self.outputs);
        for ((p, fan_out), &xi) in below.iter_mut().zip(fan_outs).zip(x) {
            let mut acc = 0.0f32;
            for (&w, &d) in fan_out.iter().zip(delta) {
                if d != 0.0 {
                    acc += w * d;
                }
            }
            *p = acc * below_activation.derivative(xi);
        }
    }

    /// The gradient step `w -= (learning_rate * d) * x` and
    /// `b -= learning_rate * d` for every output whose delta `d` is non-zero,
    /// over the same blocks of outputs as the forward pass.
    fn step(&mut self, delta: &[f32], x: &[f32], learning_rate: f32) {
        let mut o = 0;
        while o + 8 <= self.outputs {
            self.step_block::<8>(delta, x, learning_rate, o);
            o += 8;
        }
        if o + 4 <= self.outputs {
            self.step_block::<4>(delta, x, learning_rate, o);
            o += 4;
        }
        while o < self.outputs {
            self.step_block::<1>(delta, x, learning_rate, o);
            o += 1;
        }
    }

    /// The step on outputs `o..o + N`. Skipping a zero delta is a per-lane
    /// select, not a zero step, which would turn a `-0.0` weight into
    /// `+0.0`; a block whose deltas are all zero is skipped whole.
    fn step_block<const N: usize>(
        &mut self,
        delta: &[f32],
        x: &[f32],
        learning_rate: f32,
        o: usize,
    ) {
        let mut d = [0.0f32; N];
        d.copy_from_slice(&delta[o..o + N]);
        if d.iter().all(|&d| d == 0.0) {
            return;
        }
        let s = d.map(|d| learning_rate * d);
        for (fan_out, &xi) in self.weights.chunks_exact_mut(self.outputs).zip(x) {
            for ((w, &d), &s) in fan_out[o..o + N].iter_mut().zip(&d).zip(&s) {
                *w = if d != 0.0 { *w - s * xi } else { *w };
            }
        }
        for ((b, &d), &s) in self.biases[o..o + N].iter_mut().zip(&d).zip(&s) {
            *b = if d != 0.0 { *b - s } else { *b };
        }
    }
    // lint: hot-end
}

/// Reusable scratch for [`Mlp::forward_in`] and
/// [`Mlp::train_single_output`].
///
/// It grows to the largest network it serves on first use and then only
/// reuses its buffers, so a warm workspace makes both calls allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MlpWorkspace {
    /// Every layer's outputs, back to back.
    acts: Vec<f32>,
    /// The delta of the layer being stepped.
    delta: Vec<f32>,
    /// The delta it propagates to the layer below.
    below: Vec<f32>,
}

/// A multi-layer perceptron with ReLU hidden layers and a linear output
/// layer.
///
/// # Examples
///
/// ```
/// use dimmer_neural::Mlp;
/// // The paper's DQN: 31 inputs, one hidden layer of 30 ReLU units, 3 outputs.
/// let net = Mlp::new(&[31, 30, 3], 7);
/// assert_eq!(net.num_parameters(), 31 * 30 + 30 + 30 * 3 + 3);
/// let q = net.forward(&vec![0.0; 31]);
/// assert_eq!(q.len(), 3);
/// ```
#[derive(Debug, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Clone for Mlp {
    fn clone(&self) -> Self {
        Mlp {
            layers: self.layers.clone(),
        }
    }

    /// Reuses `self`'s buffers: the DQN's target sync allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.layers.clone_from(&source.layers);
    }
}

impl Mlp {
    /// Creates a network with the given layer sizes (`sizes[0]` inputs,
    /// `sizes.last()` outputs) and He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(
            sizes.len() >= 2,
            "need at least an input and an output layer"
        );
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in 0..sizes.len() - 1 {
            let activation = if w + 2 == sizes.len() {
                Activation::Linear
            } else {
                Activation::Relu
            };
            layers.push(Layer::new(sizes[w], sizes[w + 1], activation, &mut rng));
        }
        Mlp { layers }
    }

    /// Builds a network directly from layers (used by [`crate::serialize`]).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive layer shapes do not match.
    pub fn from_layers(layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].outputs, pair[1].inputs, "layer shapes must chain");
        }
        Mlp { layers }
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of inputs expected by the network.
    pub fn num_inputs(&self) -> usize {
        self.layers[0].inputs
    }

    /// Number of outputs produced by the network.
    pub fn num_outputs(&self) -> usize {
        // lint: allow(P001) -- Mlp::new rejects empty layer lists, so `layers` is never empty
        self.layers.last().expect("non-empty").outputs
    }

    /// Total number of trainable parameters (weights + biases).
    pub fn num_parameters(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.biases.len())
            .sum()
    }

    /// Forward pass. Allocates; [`Mlp::forward_in`] is the same pass over a
    /// reused workspace.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Mlp::num_inputs`].
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        self.forward_in(input, &mut MlpWorkspace::default())
            .to_vec()
    }

    /// Forward pass into `ws`; returns the outputs, borrowed from it.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Mlp::num_inputs`].
    pub fn forward_in<'w>(&self, input: &[f32], ws: &'w mut MlpWorkspace) -> &'w [f32] {
        assert_eq!(input.len(), self.num_inputs(), "input size mismatch");
        let total = self.layers.iter().map(|l| l.outputs).sum();
        if ws.acts.len() < total {
            ws.acts.resize(total, 0.0);
        }
        // lint: hot-begin
        // Layer `l` reads `acts[start..end]` (or the input) and writes the
        // next `outputs` entries.
        let (mut start, mut end) = (0, 0);
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.acts.split_at_mut(end);
            let x = if l == 0 { input } else { &done[start..] };
            layer.forward_into(x, &mut rest[..layer.outputs]);
            start = end;
            end += layer.outputs;
        }
        // lint: hot-end
        &ws.acts[start..end]
    }

    /// The index of the largest output (greedy action).
    pub fn argmax(&self, input: &[f32]) -> usize {
        self.forward_in(input, &mut MlpWorkspace::default())
            .iter()
            .enumerate()
            // lint: allow(P001) -- finite weights x finite inputs: forward() cannot produce NaN
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite outputs"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// One SGD step on the squared error of a *single output*
    /// (`output_index`), as used by Q-learning: only the chosen action's
    /// Q-value is regressed towards `target`. `ws` holds the activations and
    /// deltas; once warm, the step allocates nothing.
    ///
    /// Returns the squared error before the update.
    ///
    /// # Panics
    ///
    /// Panics if the input size or `output_index` is out of range.
    pub fn train_single_output(
        &mut self,
        input: &[f32],
        output_index: usize,
        target: f32,
        learning_rate: f32,
        ws: &mut MlpWorkspace,
    ) -> f32 {
        assert!(
            output_index < self.num_outputs(),
            "output index out of range"
        );
        let output = self.forward_in(input, ws)[output_index];
        let widest = self.layers.iter().map(|l| l.outputs).max().unwrap_or(0);
        if ws.delta.len() < widest {
            ws.delta.resize(widest, 0.0);
            ws.below.resize(widest, 0.0);
        }
        let error = output - target;
        let loss = error * error;

        // lint: hot-begin
        // The output layer's delta is non-zero only at `output_index`.
        let mut end: usize = self.layers.iter().map(|l| l.outputs).sum();
        let last = self.layers.len() - 1;
        let outputs = self.layers[last].outputs;
        ws.delta[..outputs].fill(0.0);
        ws.delta[output_index] = 2.0 * error * self.layers[last].activation.derivative(output);
        for l in (0..self.layers.len()).rev() {
            // Layer `l`'s outputs end at `end`; its inputs sit just before.
            let start = end - self.layers[l].outputs;
            let x = if l == 0 {
                input
            } else {
                &ws.acts[start - self.layers[l].inputs..start]
            };
            let delta = &ws.delta[..self.layers[l].outputs];
            if l > 0 {
                let below_activation = self.layers[l - 1].activation;
                self.layers[l].backpropagate(
                    delta,
                    x,
                    below_activation,
                    &mut ws.below[..self.layers[l].inputs],
                );
            }
            self.layers[l].step(delta, x, learning_rate);
            std::mem::swap(&mut ws.delta, &mut ws.below);
            end = start;
        }
        // lint: hot-end
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_architecture_has_expected_parameter_count() {
        let net = Mlp::new(&[31, 30, 3], 1);
        // 31*30 + 30 biases + 30*3 + 3 biases = 1053 parameters.
        assert_eq!(net.num_parameters(), 1053);
        assert_eq!(net.num_inputs(), 31);
        assert_eq!(net.num_outputs(), 3);
    }

    #[test]
    fn forward_output_has_output_size() {
        let net = Mlp::new(&[5, 8, 4], 3);
        assert_eq!(net.forward(&[0.1, -0.2, 0.3, 0.0, 1.0]).len(), 4);
    }

    #[test]
    fn same_seed_builds_identical_networks() {
        let a = Mlp::new(&[6, 10, 2], 9);
        let b = Mlp::new(&[6, 10, 2], 9);
        assert_eq!(a, b);
        let c = Mlp::new(&[6, 10, 2], 10);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn forward_rejects_wrong_input_size() {
        let net = Mlp::new(&[4, 3, 2], 0);
        net.forward(&[1.0, 2.0]);
    }

    #[test]
    fn training_regresses_a_single_output_towards_target() {
        let mut net = Mlp::new(&[3, 16, 3], 5);
        let input = [0.5, -0.5, 1.0];
        let target = 2.0;
        let before = net.forward(&input);
        let mut ws = MlpWorkspace::default();
        for _ in 0..500 {
            net.train_single_output(&input, 1, target, 0.01, &mut ws);
        }
        let after = net.forward(&input);
        assert!(
            (after[1] - target).abs() < 0.05,
            "output 1 should approach {target}, got {}",
            after[1]
        );
        // Untrained outputs should not have been dragged to the target too.
        assert!((after[0] - target).abs() > (after[1] - target).abs());
        let _ = before;
    }

    #[test]
    fn training_reduces_loss_on_a_small_function_fit() {
        // Fit q(x) for 4 discrete states and 2 actions: a tiny sanity task.
        let states: Vec<Vec<f32>> = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let targets = [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]];
        let mut net = Mlp::new(&[2, 24, 2], 11);
        let mut ws = MlpWorkspace::default();
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for epoch in 0..3000 {
            let mut loss = 0.0;
            for (s, t) in states.iter().zip(&targets) {
                loss += net.train_single_output(s, 0, t[0], 0.02, &mut ws);
                loss += net.train_single_output(s, 1, t[1], 0.02, &mut ws);
            }
            if epoch == 0 {
                first_loss = loss;
            }
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss * 0.05,
            "training should shrink the loss ({first_loss} -> {last_loss})"
        );
        // The greedy action should match the target table.
        assert_eq!(net.argmax(&states[0]), 1);
        assert_eq!(net.argmax(&states[1]), 0);
        assert_eq!(net.argmax(&states[2]), 0);
        assert_eq!(net.argmax(&states[3]), 1);
    }

    #[test]
    fn argmax_picks_the_largest_output() {
        let net = Mlp::new(&[4, 6, 3], 2);
        let input = [0.2, -0.7, 0.4, 0.9];
        let out = net.forward(&input);
        let best = net.argmax(&input);
        for (i, v) in out.iter().enumerate() {
            assert!(out[best] >= *v, "argmax {best} must dominate output {i}");
        }
    }

    #[test]
    fn from_layers_validates_shapes() {
        let a = Mlp::new(&[3, 4, 2], 1);
        let rebuilt = Mlp::from_layers(a.layers().to_vec());
        assert_eq!(a, rebuilt);
    }

    #[test]
    #[should_panic(expected = "layer shapes must chain")]
    fn from_layers_rejects_mismatched_shapes() {
        let a = Mlp::new(&[3, 4, 2], 1);
        let b = Mlp::new(&[5, 7, 2], 1);
        Mlp::from_layers(vec![a.layers()[0].clone(), b.layers()[1].clone()]);
    }

    #[test]
    fn new_draws_he_init_row_by_row() {
        let net = Mlp::new(&[3, 2], 4);
        let std = (2.0f32 / 3.0).sqrt();
        let mut rng = StdRng::seed_from_u64(4);
        let layer = &net.layers()[0];
        for o in 0..2 {
            let drawn: Vec<f32> = (0..3).map(|_| rng.gen_range(-std..std)).collect();
            assert_eq!(layer.row(o).collect::<Vec<_>>(), drawn, "row {o}");
        }
    }

    #[test]
    fn from_rows_reads_back_through_row() {
        let rows = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let layer = Layer::from_rows(3, 2, Activation::Linear, &rows, vec![0.5, -0.5]).unwrap();
        assert_eq!(layer.row(0).collect::<Vec<_>>(), [1.0, 2.0, 3.0]);
        assert_eq!(layer.row(1).collect::<Vec<_>>(), [4.0, 5.0, 6.0]);
        assert_eq!(layer.biases(), [0.5, -0.5]);
        let out = Mlp::from_layers(vec![layer]).forward(&[1.0, 0.0, -1.0]);
        assert_eq!(out, [-1.5, -2.5]);
    }

    #[test]
    fn from_rows_rejects_bad_shapes_and_non_finite_values() {
        let bias = |n| vec![0.0; n];
        let relu = Activation::Relu;
        assert!(Layer::from_rows(0, 2, relu, &[], bias(2)).is_err());
        assert!(Layer::from_rows(2, 2, relu, &[0.0; 3], bias(2)).is_err());
        assert!(Layer::from_rows(2, 2, relu, &[0.0; 4], bias(1)).is_err());
        assert!(Layer::from_rows(usize::MAX, 2, relu, &[0.0; 2], bias(2)).is_err());
        assert!(Layer::from_rows(1, 1, relu, &[f32::NAN], bias(1)).is_err());
        assert!(Layer::from_rows(1, 1, relu, &[0.0], vec![f32::INFINITY]).is_err());
        assert!(Layer::from_rows(1, 1, relu, &[0.0], bias(1)).is_ok());
    }

    #[test]
    fn clone_from_copies_a_network_into_reused_buffers() {
        let source = Mlp::new(&[4, 6, 3], 1);
        let mut target = Mlp::new(&[4, 6, 3], 2);
        target.clone_from(&source);
        assert_eq!(target, source);
        let mut other_shape = Mlp::new(&[2, 3], 3);
        other_shape.clone_from(&source);
        assert_eq!(other_shape, source);
    }

    #[test]
    fn one_workspace_serves_networks_of_different_shapes() {
        let small = Mlp::new(&[2, 3, 2], 5);
        let large = Mlp::new(&[5, 12, 9, 4], 6);
        let mut ws = MlpWorkspace::default();
        let small_out = small.forward_in(&[0.3, -0.1], &mut ws).to_vec();
        let large_out = large
            .forward_in(&[0.1, 0.2, -0.3, 0.4, 0.0], &mut ws)
            .to_vec();
        assert_eq!(small.forward_in(&[0.3, -0.1], &mut ws), small_out);
        assert_eq!(large.forward(&[0.1, 0.2, -0.3, 0.4, 0.0]), large_out);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_forward_is_finite(seed in 0u64..100, input in proptest::collection::vec(-1.0f32..1.0, 5)) {
            let net = Mlp::new(&[5, 12, 3], seed);
            for v in net.forward(&input) {
                prop_assert!(v.is_finite());
            }
        }

        #[test]
        fn prop_argmax_in_range(seed in 0u64..100, input in proptest::collection::vec(-1.0f32..1.0, 7)) {
            let net = Mlp::new(&[7, 9, 4], seed);
            prop_assert!(net.argmax(&input) < 4);
        }
    }
}
