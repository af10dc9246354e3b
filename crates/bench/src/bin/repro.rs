//! The paper's evaluation (§VII): Fig. 4–6, Table I and the pricing
//! ablation; `pem_bench::repro` is the experiment index.

fn main() {
    pem_bench::repro::main();
}
