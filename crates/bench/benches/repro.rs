//! `cargo bench -p bench`: run every experiment of [`bench::EXPERIMENTS`],
//! print its rows and rewrite the committed `BENCH_repro.json`.

fn main() {
    let sections: Vec<String> = bench::EXPERIMENTS
        .iter()
        .map(|exp| {
            let rows = (exp.run)();
            bench::print_section(exp, &rows);
            bench::render_section(exp, &rows)
        })
        .collect();
    std::fs::write(bench::REPRO_PATH, bench::render_file(&sections))
        .expect("write BENCH_repro.json");
    println!("\nwrote {}", bench::REPRO_PATH);
}
