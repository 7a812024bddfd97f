//! Command-line entry point of the host-time benchmark.
//!
//! ```text
//! perfbench --workload <run-starved|serve> --seed N
//!           --seconds S --trace <0|1> [--quick] [--spans-out PATH]
//!           [--corrupt-expected]
//! ```
//!
//! Prints one line per metric (name, value, unit) and context lines, then,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when any correctness check
//! failed and 2 on a usage error.

use std::process::ExitCode;

use cards_perfbench::{run, Opts, Outcome, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <run-starved|serve> --seed N \
         --seconds S --trace <0|1> [--quick] [--spans-out PATH] [--corrupt-expected]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let (mut quick, mut corrupt, mut spans_out) = (false, false, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match a.as_str() {
            "--workload" => match Workload::parse(&value()) {
                Some(w) => workload = Some(w),
                None => return usage("unknown workload"),
            },
            "--seed" => match value().parse() {
                Ok(s) => seed = s,
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 120.0 => seconds = s,
                _ => return usage("--seconds takes a number in (0, 120]"),
            },
            "--trace" => match value().as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--quick" => quick = true,
            "--corrupt-expected" => corrupt = true,
            "--spans-out" => spans_out = Some(value()),
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let o = Opts {
        workload,
        seed,
        seconds,
        trace,
        quick,
        corrupt_expected: corrupt,
    };
    let out = run(&o);
    print_report(&o, &out);
    if let (true, Some(path)) = (trace, spans_out) {
        if let Err(e) = write_spans(&path, &out) {
            eprintln!("perfbench: writing spans to {path}: {e}");
        }
    }
    match out.json_line(trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::from(out.exit_code() as u8)
}

fn print_report(o: &Opts, out: &Outcome) {
    println!(
        "== perfbench {} seed {} ({}, {} s measured, {} threads available)",
        o.workload.name(),
        o.seed,
        if o.trace { "traced" } else { "untraced" },
        o.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (name, unit) in Outcome::catalog(o.trace) {
        if let Some(v) = out.metrics.get(name) {
            println!("  {name:<32} {v:>18.6} {unit}");
        }
    }
    println!(
        "  {:<32} {:>18.6} frac ({} of {} checks failed)",
        "failed_frac",
        out.checks.failed_frac(),
        out.checks.failed,
        out.checks.attempted
    );
    for n in &out.notes {
        println!("  # {n}");
    }
    for n in &out.checks.notes {
        eprintln!("perfbench: check failed: {n}");
    }
}

fn write_spans(path: &str, out: &Outcome) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.spans.write_jsonl(&mut w)?;
    std::io::Write::flush(&mut w)
}
