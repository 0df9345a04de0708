//! Dependency-free text serialization of trained networks.
//!
//! The format is line-oriented so that a trained policy can be committed to
//! the repository and embedded into the protocol crate with `include_str!`,
//! mirroring how the paper flashes the trained weights onto the motes.
//!
//! ```text
//! mlp v1
//! layers <n>
//! layer <inputs> <outputs> <relu|linear>
//! w <w00> <w01> ...      # one line per output neuron
//! b <b0> <b1> ...        # one line per layer
//! ```

use crate::mlp::{Activation, Layer, Mlp};
use std::fmt::Write as _;

/// Error produced when parsing a serialized network fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetworkError {
    message: String,
}

impl ParseNetworkError {
    fn new(message: impl Into<String>) -> Self {
        ParseNetworkError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseNetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid network file: {}", self.message)
    }
}

impl std::error::Error for ParseNetworkError {}

/// Serializes a trained network to the text format.
///
/// # Examples
///
/// ```
/// use dimmer_neural::Mlp;
/// use dimmer_neural::serialize::{to_text, from_text};
/// let net = Mlp::new(&[4, 6, 3], 11);
/// let text = to_text(&net);
/// let back = from_text(&text).unwrap();
/// assert_eq!(net.forward(&[0.1, 0.2, 0.3, 0.4]), back.forward(&[0.1, 0.2, 0.3, 0.4]));
/// ```
pub fn to_text(mlp: &Mlp) -> String {
    let mut s = String::new();
    // lint: allow(P001) -- fmt::Write into a String cannot fail
    writeln!(s, "mlp v1").expect("writing to a String cannot fail");
    writeln!(s, "layers {}", mlp.layers().len()).expect("infallible"); // lint: allow(P001) -- fmt::Write into a String cannot fail
    for layer in mlp.layers() {
        let act = match layer.activation() {
            Activation::Relu => "relu",
            Activation::Linear => "linear",
        };
        writeln!(s, "layer {} {} {}", layer.inputs(), layer.outputs(), act).expect("infallible"); // lint: allow(P001) -- fmt::Write into a String cannot fail
        for o in 0..layer.outputs() {
            let joined: Vec<String> = layer.row(o).map(|w| format!("{w}")).collect();
            writeln!(s, "w {}", joined.join(" ")).expect("infallible"); // lint: allow(P001) -- fmt::Write into a String cannot fail
        }
        let joined: Vec<String> = layer.biases().iter().map(|b| format!("{b}")).collect();
        writeln!(s, "b {}", joined.join(" ")).expect("infallible"); // lint: allow(P001) -- fmt::Write into a String cannot fail
    }
    s
}

/// Parses a network from the text format produced by [`to_text`].
///
/// # Errors
///
/// Returns a [`ParseNetworkError`] if the header, layer declarations or
/// weight/bias lines are malformed or inconsistent.
pub fn from_text(text: &str) -> Result<Mlp, ParseNetworkError> {
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines
        .next()
        .ok_or_else(|| ParseNetworkError::new("empty file"))?;
    if header != "mlp v1" {
        return Err(ParseNetworkError::new(format!(
            "unsupported header `{header}`"
        )));
    }
    let layers_line = lines
        .next()
        .ok_or_else(|| ParseNetworkError::new("missing layer count"))?;
    let count: usize = layers_line
        .strip_prefix("layers ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseNetworkError::new("malformed layer count"))?;

    // Nothing is reserved on the strength of a header count: every vector
    // grows only with the rows the text actually holds.
    let mut layers = Vec::new();
    for _ in 0..count {
        let decl = lines
            .next()
            .ok_or_else(|| ParseNetworkError::new("missing layer header"))?;
        let mut parts = decl.split_whitespace();
        if parts.next() != Some("layer") {
            return Err(ParseNetworkError::new(format!(
                "expected `layer`, got `{decl}`"
            )));
        }
        let inputs: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ParseNetworkError::new("bad layer input size"))?;
        let outputs: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ParseNetworkError::new("bad layer output size"))?;
        let activation = match parts.next() {
            Some("relu") => Activation::Relu,
            Some("linear") => Activation::Linear,
            other => {
                return Err(ParseNetworkError::new(format!("bad activation {other:?}")));
            }
        };
        let mut rows = Vec::new();
        for _ in 0..outputs {
            let row = lines
                .next()
                .ok_or_else(|| ParseNetworkError::new("missing weight row"))?;
            let rest = row
                .strip_prefix("w ")
                .ok_or_else(|| ParseNetworkError::new("weight row must start with `w `"))?;
            let start = rows.len();
            for v in rest.split_whitespace() {
                rows.push(
                    v.parse()
                        .map_err(|_| ParseNetworkError::new("non-numeric weight"))?,
                );
            }
            if rows.len() - start != inputs {
                return Err(ParseNetworkError::new("weight row length mismatch"));
            }
        }
        let bias_line = lines
            .next()
            .ok_or_else(|| ParseNetworkError::new("missing bias row"))?;
        let rest = bias_line
            .strip_prefix("b ")
            .ok_or_else(|| ParseNetworkError::new("bias row must start with `b `"))?;
        let biases: Result<Vec<f32>, _> = rest.split_whitespace().map(str::parse).collect();
        let biases = biases.map_err(|_| ParseNetworkError::new("non-numeric bias"))?;
        layers.push(
            Layer::from_rows(inputs, outputs, activation, &rows, biases)
                .map_err(ParseNetworkError::new)?,
        );
    }
    for pair in layers.windows(2) {
        if pair[0].outputs() != pair[1].inputs() {
            return Err(ParseNetworkError::new("layer shapes do not chain"));
        }
    }
    if layers.is_empty() {
        return Err(ParseNetworkError::new("network has no layers"));
    }
    Ok(Mlp::from_layers(layers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_preserves_outputs_exactly() {
        let net = Mlp::new(&[31, 30, 3], 77);
        let text = to_text(&net);
        let back = from_text(&text).expect("roundtrip parse");
        let input = vec![0.25f32; 31];
        assert_eq!(net.forward(&input), back.forward(&input));
        assert_eq!(net.num_parameters(), back.num_parameters());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let net = Mlp::new(&[2, 3, 2], 1);
        let text = format!("# trained policy\n\n{}", to_text(&net));
        assert!(from_text(&text).is_ok());
    }

    #[test]
    fn rejects_wrong_header() {
        assert!(from_text("mlp v2\nlayers 0\n").is_err());
        assert!(from_text("").is_err());
    }

    #[test]
    fn rejects_malformed_rows() {
        let good = to_text(&Mlp::new(&[2, 2], 1));
        let broken = good.replace("w ", "x ");
        assert!(from_text(&broken).is_err());
        let truncated: String = good.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(from_text(&truncated).is_err());
    }

    #[test]
    fn huge_header_counts_are_errors_not_aborts() {
        // A layer count whose reservation alone would exhaust memory.
        assert!(from_text("mlp v1\nlayers 4000000000000000\n").is_err());
        // A weight count whose reservation overflows the capacity.
        let wide = "mlp v1\nlayers 1\nlayer 4000000000 4000000000 relu\n";
        assert!(from_text(wide).is_err());
    }

    #[test]
    fn non_finite_weights_and_biases_are_rejected() {
        for bad in ["NaN", "inf", "-inf"] {
            let weight = format!("mlp v1\nlayers 1\nlayer 1 1 linear\nw {bad}\nb 0\n");
            assert!(from_text(&weight).is_err(), "weight {bad}");
            let bias = format!("mlp v1\nlayers 1\nlayer 1 1 linear\nw 0.5\nb {bad}\n");
            assert!(from_text(&bias).is_err(), "bias {bad}");
        }
        assert!(from_text("mlp v1\nlayers 1\nlayer 1 1 linear\nw 0.5\nb 0\n").is_ok());
    }

    #[test]
    fn error_display_mentions_problem() {
        let err = from_text("nonsense").unwrap_err();
        assert!(format!("{err}").contains("unsupported header"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_roundtrip_any_architecture(seed in 0u64..100, hidden in 1usize..20, outputs in 1usize..5) {
            let net = Mlp::new(&[7, hidden, outputs], seed);
            let back = from_text(&to_text(&net)).unwrap();
            let input = vec![0.5f32; 7];
            prop_assert_eq!(net.forward(&input), back.forward(&input));
        }

        #[test]
        fn prop_arbitrary_header_numbers_never_panic(
            count in (0u64..4, 0u32..62),
            inputs in (0u64..4, 0u32..62),
            outputs in (0u64..4, 0u32..62),
            rows in 0usize..4,
        ) {
            // `m << e`: zero, small counts and counts far past any memory.
            let [count, inputs, outputs] = [count, inputs, outputs].map(|(m, e)| m << e);
            let mut text = format!("mlp v1\nlayers {count}\nlayer {inputs} {outputs} relu\n");
            for _ in 0..rows {
                text.push_str("w 0.5 -0.25\n");
            }
            text.push_str("b 0 0\n");
            let parsed = from_text(&text);
            let fits = count == 1 && inputs == 2 && outputs == 2 && rows == 2;
            prop_assert_eq!(parsed.is_ok(), fits);
        }
    }
}
