// Fixture protocol list: `beta` is documented nowhere, so S002 fires once
// per document.
pub const PROTOCOLS: [&str; 2] = ["alpha", "beta"];
