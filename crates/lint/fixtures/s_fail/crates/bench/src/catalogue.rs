// Fixture catalogue: `ghost` is never named in README.md.
static CATALOGUE: [GridEntry; 3] = [
    GridEntry {
        name: "demo",
        build: |b| {
            let grid = demo(b);
            grid
        },
    },
    GridEntry {
        name: "family:<variant>",
        build: |b| family(b),
    },
    GridEntry {
        name: "ghost",
        build: |b| ghost(b),
    },
];
