//! `cargo bench -p bench`: run every experiment of [`bench::EXPERIMENTS`]
//! and every grid section of [`bench::SIM`], print their rows and rewrite
//! the committed `BENCH_repro.json` and `BENCH_sim.json`.

fn main() {
    let records: [(&[bench::Experiment], &str); 2] = [
        (&bench::EXPERIMENTS, bench::REPRO_PATH),
        (&bench::SIM, bench::SIM_PATH),
    ];
    for (table, path) in records {
        let sections: Vec<String> = table
            .iter()
            .map(|exp| {
                let rows = (exp.run)();
                bench::print_section(exp, &rows);
                bench::render_section(exp, &rows)
            })
            .collect();
        std::fs::write(path, bench::render_file(&sections)).expect("write the record");
        println!("\nwrote {path}");
    }
}
