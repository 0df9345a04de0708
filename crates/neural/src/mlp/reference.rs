//! The row-major kernel [`Mlp`] ran before its layers went input-major:
//! one sequential dot product per output, a fresh vector for every
//! activation and delta, and a delta propagated into the input layer too.
//! Its arithmetic is kept unchanged as the equivalence oracle: the property
//! test below trains it side by side with [`Mlp`] and requires every
//! weight, bias, loss and output to match bit for bit after every step.

use super::{Activation, Layer, Mlp, MlpWorkspace};

/// A layer with row-major weights: `weights[o * inputs + i]`.
#[derive(Debug, Clone)]
struct RowMajorLayer {
    weights: Vec<f32>,
    biases: Vec<f32>,
    inputs: usize,
    outputs: usize,
    activation: Activation,
}

impl RowMajorLayer {
    fn forward(&self, input: &[f32], pre: &mut Vec<f32>, out: &mut Vec<f32>) {
        pre.clear();
        out.clear();
        for o in 0..self.outputs {
            let mut acc = self.biases[o];
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            pre.push(acc);
            out.push(self.activation.apply(acc));
        }
    }
}

/// A row-major copy of an [`Mlp`].
#[derive(Debug, Clone)]
struct RowMajorMlp {
    layers: Vec<RowMajorLayer>,
}

impl RowMajorMlp {
    fn of(mlp: &Mlp) -> Self {
        let layers = mlp
            .layers()
            .iter()
            .map(|l| RowMajorLayer {
                weights: (0..l.outputs()).flat_map(|o| l.row(o)).collect(),
                biases: l.biases().to_vec(),
                inputs: l.inputs(),
                outputs: l.outputs(),
                activation: l.activation(),
            })
            .collect();
        RowMajorMlp { layers }
    }

    fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut current = input.to_vec();
        let mut pre = Vec::new();
        let mut out = Vec::new();
        for layer in &self.layers {
            layer.forward(&current, &mut pre, &mut out);
            current.clone_from(&out);
        }
        current
    }

    fn train_single_output(
        &mut self,
        input: &[f32],
        output_index: usize,
        target: f32,
        learning_rate: f32,
    ) -> f32 {
        // Forward pass, keeping pre-activations and activations per layer.
        let mut activations: Vec<Vec<f32>> = vec![input.to_vec()];
        let mut pre_activations: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let mut pre = Vec::new();
            let mut out = Vec::new();
            layer.forward(&activations[activations.len() - 1], &mut pre, &mut out);
            pre_activations.push(pre);
            activations.push(out);
        }

        let output = &activations[activations.len() - 1];
        let error = output[output_index] - target;
        let loss = error * error;

        // Backward pass: delta on the output layer is non-zero only at
        // `output_index`.
        let last = self.layers.len() - 1;
        let mut delta: Vec<f32> = vec![0.0; self.layers[last].outputs];
        delta[output_index] = 2.0
            * error
            * self.layers[last]
                .activation
                .derivative(pre_activations[last][output_index]);

        for l in (0..self.layers.len()).rev() {
            let input_act = activations[l].clone();
            // Compute the delta to propagate before mutating the layer.
            let mut prev_delta = vec![0.0f32; self.layers[l].inputs];
            {
                let layer = &self.layers[l];
                for (o, &d) in delta.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                    for (p, &w) in prev_delta.iter_mut().zip(row) {
                        *p += w * d;
                    }
                }
            }
            // Gradient step.
            {
                let layer = &mut self.layers[l];
                let inputs = layer.inputs;
                for (o, &d) in delta.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let row = &mut layer.weights[o * inputs..(o + 1) * inputs];
                    for (w, &a) in row.iter_mut().zip(&input_act) {
                        *w -= learning_rate * d * a;
                    }
                    layer.biases[o] -= learning_rate * d;
                }
            }
            if l > 0 {
                // Apply the activation derivative of the previous layer.
                for (i, d) in prev_delta.iter_mut().enumerate() {
                    *d *= self.layers[l - 1]
                        .activation
                        .derivative(pre_activations[l - 1][i]);
                }
            }
            delta = prev_delta;
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Rebuilds `mlp` through [`Layer::from_rows`] with every weight and
    /// bias whose `pick` is zero replaced by `-0.0`, the value a skipped
    /// step keeps and a zero step would turn into `+0.0`.
    fn with_negative_zeros(mlp: &Mlp, mut pick: impl FnMut() -> u32) -> Mlp {
        let mut zeroed = |v: f32| if pick() == 0 { -0.0 } else { v };
        let layers = mlp
            .layers()
            .iter()
            .map(|l| {
                let rows: Vec<f32> = (0..l.outputs())
                    .flat_map(|o| l.row(o))
                    .map(&mut zeroed)
                    .collect();
                let biases = l.biases().iter().map(|&b| zeroed(b)).collect();
                Layer::from_rows(l.inputs(), l.outputs(), l.activation(), &rows, biases).unwrap()
            })
            .collect();
        Mlp::from_layers(layers)
    }

    /// Every weight (row by row) and bias, as bits.
    fn bits(mlp: &Mlp) -> Vec<u32> {
        mlp.layers()
            .iter()
            .flat_map(|l| {
                let rows: Vec<f32> = (0..l.outputs()).flat_map(|o| l.row(o)).collect();
                rows.into_iter().chain(l.biases().iter().copied())
            })
            .map(f32::to_bits)
            .collect()
    }

    fn reference_bits(net: &RowMajorMlp) -> Vec<u32> {
        net.layers
            .iter()
            .flat_map(|l| l.weights.iter().chain(&l.biases))
            .map(|v| v.to_bits())
            .collect()
    }

    fn out_bits(out: &[f32]) -> Vec<u32> {
        out.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_kernel_trains_bit_for_bit_like_the_row_major_reference(
            seed in 0u64..1_000_000,
            inputs in 1usize..=12,
            hidden in proptest::collection::vec(1usize..=20, 1..=3),
            outputs in 1usize..=20,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sizes = vec![inputs];
            sizes.extend(&hidden);
            sizes.push(outputs);
            let mut net = with_negative_zeros(&Mlp::new(&sizes, seed), || rng.gen_range(0..8));
            let mut reference = RowMajorMlp::of(&net);
            let mut ws = MlpWorkspace::default();
            for step in 0..8 {
                // Exact zeros and negatives, so dead ReLUs give zero deltas.
                let input: Vec<f32> = (0..inputs)
                    .map(|_| if rng.gen_range(0..4) == 0 { 0.0 } else { rng.gen_range(-2.0f32..2.0) })
                    .collect();
                let action = rng.gen_range(0..outputs);
                let target = rng.gen_range(-3.0f32..3.0);
                let learning_rate = rng.gen_range(0.001f32..0.05);
                prop_assert_eq!(
                    out_bits(net.forward_in(&input, &mut ws)),
                    out_bits(&reference.forward(&input)),
                    "outputs before step {}", step
                );
                let loss = net.train_single_output(&input, action, target, learning_rate, &mut ws);
                let want = reference.train_single_output(&input, action, target, learning_rate);
                prop_assert_eq!(loss.to_bits(), want.to_bits(), "loss of step {}", step);
                prop_assert_eq!(bits(&net), reference_bits(&reference), "parameters after step {}", step);
            }
        }
    }
}
