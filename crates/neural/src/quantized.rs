//! Fixed-point inference engine — the "embedded DQN" of the paper.
//!
//! Weights are stored as `i16` (2 bytes) scaled by [`crate::SCALE`] = 100,
//! intermediate results use `i32` (4 bytes). For the paper's 31-30-3 network
//! this amounts to ~2.1 kB of flash for the weights and ~400 B of RAM for the
//! two activation buffers — the footprint reported in §IV-B.

use crate::fixed::{fixed_relu, from_fixed, to_fixed, SCALE};
use crate::mlp::{Activation, Mlp};

/// One quantized fully-connected layer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct QuantizedLayer {
    weights: Vec<i16>,
    biases: Vec<i16>,
    inputs: usize,
    outputs: usize,
    relu: bool,
}

/// A fixed-point, integer-only inference network derived from a trained
/// [`Mlp`].
///
/// # Examples
///
/// ```
/// use dimmer_neural::{Mlp, QuantizedNetwork};
/// let mlp = Mlp::new(&[31, 30, 3], 1);
/// let q = QuantizedNetwork::from_mlp(&mlp);
/// assert_eq!(q.num_inputs(), 31);
/// assert_eq!(q.num_outputs(), 3);
/// // The paper's footprint: ~2.1 kB of weights, ~400 B of RAM.
/// assert!(q.flash_size_bytes() < 2_300);
/// assert!(q.ram_size_bytes() <= 488);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedNetwork {
    layers: Vec<QuantizedLayer>,
}

impl QuantizedNetwork {
    /// Quantizes a trained floating-point network.
    pub fn from_mlp(mlp: &Mlp) -> Self {
        let layers = mlp
            .layers()
            .iter()
            .map(|l| QuantizedLayer {
                // Row-major, as the coordinator's table stores them.
                weights: (0..l.outputs())
                    .flat_map(|o| l.row(o))
                    .map(to_fixed)
                    .collect(),
                biases: l.biases().iter().map(|&b| to_fixed(b)).collect(),
                inputs: l.inputs(),
                outputs: l.outputs(),
                relu: l.activation() == Activation::Relu,
            })
            .collect();
        QuantizedNetwork { layers }
    }

    /// Number of inputs expected by the network.
    pub fn num_inputs(&self) -> usize {
        self.layers[0].inputs
    }

    /// Number of outputs produced by the network.
    pub fn num_outputs(&self) -> usize {
        // lint: allow(P001) -- quantization preserves the layer list, which Mlp::new keeps non-empty
        self.layers.last().expect("non-empty").outputs
    }

    /// Bytes of flash needed to store the quantized weights and biases
    /// (2 bytes per parameter, as on the TelosB implementation).
    pub fn flash_size_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| 2 * (l.weights.len() + l.biases.len()))
            .sum()
    }

    /// Bytes of RAM needed for the two intermediate activation buffers
    /// (4 bytes per entry, double-buffered over the widest layer interface).
    pub fn ram_size_bytes(&self) -> usize {
        let widest = self
            .layers
            .iter()
            .flat_map(|l| [l.inputs, l.outputs])
            .max()
            .unwrap_or(0);
        2 * 4 * widest
    }

    /// Integer forward pass: `input` entries are fixed-point values scaled by
    /// [`SCALE`] (e.g. `1.0` is passed as `100`); the returned Q-values use
    /// the same scale.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`QuantizedNetwork::num_inputs`].
    pub fn forward_fixed(&self, input: &[i32]) -> Vec<i32> {
        assert_eq!(input.len(), self.num_inputs(), "input size mismatch");
        let mut current: Vec<i32> = input.to_vec();
        let mut next: Vec<i32> = Vec::new();
        for layer in &self.layers {
            next.clear();
            for o in 0..layer.outputs {
                // 4-byte accumulator, exactly as on the 16-bit MCU (32-bit
                // arithmetic emulated in software there, native here).
                let mut acc: i64 = layer.biases[o] as i64 * SCALE as i64;
                let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                for (w, x) in row.iter().zip(&current) {
                    acc += *w as i64 * *x as i64;
                }
                let mut v = (acc / SCALE as i64) as i32;
                if layer.relu {
                    v = fixed_relu(v);
                }
                next.push(v);
            }
            std::mem::swap(&mut current, &mut next);
        }
        current
    }

    /// Convenience forward pass taking/returning floats (quantizing the input
    /// to the fixed-point grid first).
    pub fn forward_f32(&self, input: &[f32]) -> Vec<f32> {
        let fixed: Vec<i32> = input.iter().map(|&x| to_fixed(x) as i32).collect();
        self.forward_fixed(&fixed)
            .into_iter()
            .map(from_fixed)
            .collect()
    }

    /// Greedy action: index of the largest Q-value for the given fixed-point
    /// input.
    pub fn argmax_fixed(&self, input: &[i32]) -> usize {
        let out = self.forward_fixed(input);
        let mut best = 0;
        for (i, v) in out.iter().enumerate() {
            if *v > out[best] {
                best = i;
            }
        }
        best
    }

    /// Greedy action for a float input.
    pub fn argmax_f32(&self, input: &[f32]) -> usize {
        let fixed: Vec<i32> = input.iter().map(|&x| to_fixed(x) as i32).collect();
        self.argmax_fixed(&fixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_footprint_is_reproduced() {
        // 31-30-3 network: 1053 parameters * 2 B = 2106 B ≈ 2.1 kB flash,
        // 2 buffers * 31 entries * 4 B = 248 B < 400 B RAM.
        let q = QuantizedNetwork::from_mlp(&Mlp::new(&[31, 30, 3], 0));
        assert_eq!(q.flash_size_bytes(), 2106);
        assert!(q.ram_size_bytes() <= 400);
    }

    #[test]
    fn quantized_forward_tracks_float_forward() {
        let mlp = Mlp::new(&[10, 16, 3], 3);
        let q = QuantizedNetwork::from_mlp(&mlp);
        let input: Vec<f32> = (0..10).map(|i| ((i as f32) / 10.0) - 0.5).collect();
        let float_out = mlp.forward(&input);
        let fixed_out = q.forward_f32(&input);
        for (a, b) in float_out.iter().zip(&fixed_out) {
            assert!((a - b).abs() < 0.2, "float {a} vs fixed {b}");
        }
    }

    #[test]
    fn argmax_agrees_with_float_network_most_of_the_time() {
        let mlp = Mlp::new(&[8, 20, 3], 5);
        let q = QuantizedNetwork::from_mlp(&mlp);
        let mut agree = 0;
        let total = 200;
        for k in 0..total {
            let input: Vec<f32> = (0..8)
                .map(|i| (((k * 7 + i * 13) % 21) as f32 / 10.0) - 1.0)
                .collect();
            if mlp.argmax(&input) == q.argmax_f32(&input) {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / total as f64 > 0.9,
            "agreement {agree}/{total}"
        );
    }

    #[test]
    fn fixed_and_f32_entry_points_are_consistent() {
        let q = QuantizedNetwork::from_mlp(&Mlp::new(&[4, 6, 2], 9));
        let input = [0.25f32, -1.0, 0.5, 1.0];
        let via_f32 = q.forward_f32(&input);
        let via_fixed: Vec<f32> = q
            .forward_fixed(&[25, -100, 50, 100])
            .into_iter()
            .map(from_fixed)
            .collect();
        assert_eq!(via_f32, via_fixed);
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn forward_rejects_wrong_input_size() {
        let q = QuantizedNetwork::from_mlp(&Mlp::new(&[4, 6, 2], 9));
        q.forward_fixed(&[0, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_argmax_in_range(seed in 0u64..50, input in proptest::collection::vec(-100i32..=100, 6)) {
            let q = QuantizedNetwork::from_mlp(&Mlp::new(&[6, 10, 3], seed));
            prop_assert!(q.argmax_fixed(&input) < 3);
        }

        #[test]
        fn prop_quantization_error_is_bounded(seed in 0u64..50, input in proptest::collection::vec(-1.0f32..1.0, 6)) {
            let mlp = Mlp::new(&[6, 10, 3], seed);
            let q = QuantizedNetwork::from_mlp(&mlp);
            let a = mlp.forward(&input);
            let b = q.forward_f32(&input);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 0.3, "float {x} fixed {y}");
            }
        }
    }
}
