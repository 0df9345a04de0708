pub const PROTOCOLS: [&str; 1] = ["alpha"];

#[cfg(test)]
mod tests {
    // Test-only lists need no documentation.
    const PROTOCOLS: [&str; 2] = ["alpha", "throwaway"];
}
