// Fixture catalogue: every grid is documented.
static CATALOGUE: [GridEntry; 2] = [
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
];
