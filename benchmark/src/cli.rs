//! Command line of `bench-e2e`, kept in the library so the integration test
//! drives exactly what the binary does.

use crate::e2e::{engine_metrics, fresh_setups_s, measure_engine, measure_net};
use crate::engine::EngineOpts;
use crate::host;
use crate::layers;
use crate::report::{result_json, table, Metric};
use crate::workload::{find, Scenario, Spec, Transport, WORKLOADS};
use std::io;
use std::path::PathBuf;

/// Usage text.
pub const USAGE: &str = "usage: bench-e2e [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke]\n\
workloads: refresh-s256-n13 sign-s256-n7 mobile-toy64-n16 net-toy64-n5 (default: all four)";

/// Fresh set-ups per run, at least; `setup_s` is the fastest.
pub const SETUPS: usize = 15;

/// Set-ups keep coming until they have taken this long in total: the floor
/// of a 4 ms socket set-up or a 10 ms DKG takes a hundred tries to find
/// (fifteen left the medians of two sets of ten runs 6-7 % apart), that of a
/// 70 ms one is sharp after fifteen.
const SETUP_SECONDS: f64 = 1.0;

/// Fresh set-ups of a `--smoke` run (no time budget).
const SMOKE_SETUPS: usize = 3;

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run; `None` runs all four.
    pub workload: Option<&'static Spec>,
    /// Seed of the inputs.
    pub seed: u64,
    /// Measuring time; sets the number of timed units.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Short run: two timed units (20 over sockets), three set-ups.
    pub smoke: bool,
    /// Where sockets and trace files go (relative to the working directory;
    /// socket paths must stay short). Not a flag: only tests move it.
    pub out_dir: PathBuf,
    /// Test hook (not a flag): corrupt one captured certificate before
    /// verifying it.
    pub tamper: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: None,
            seed: 1,
            seconds: 20,
            trace: false,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
            tamper: false,
        }
    }
}

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    out.workload =
                        Some(find(&name).ok_or_else(|| format!("unknown workload '{name}'"))?);
                }
                "--seed" => out.seed = parse(&value("a number")?)?,
                "--seconds" => out.seconds = parse(&value("a number")?)?,
                "--trace" => {
                    out.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    }
                }
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if out.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(out)
    }

    /// Fresh set-ups this run makes, at least, and the time they are to fill.
    pub fn setups(&self) -> (usize, f64) {
        if self.smoke {
            (SMOKE_SETUPS, 0.0)
        } else {
            (SETUPS, SETUP_SECONDS)
        }
    }

    fn units(&self, spec: &Spec) -> u64 {
        if self.smoke {
            spec.smoke_units
        } else {
            Scenario::units_for(spec, self.seconds)
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("'{s}' is not a valid number"))
}

/// What one workload run produced.
pub struct Outcome {
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics of the requested kind.
    pub metrics: Vec<Metric>,
    /// `host.contention_ratio`: median unit as it went ÷ uncontended unit.
    pub contention_ratio: f64,
    /// `rounds_per_s` as the plain per-round minimum of the readings as they
    /// went gives it, without the reference kernel: printed so that the
    /// noise gate can keep showing what the kernel buys.
    pub plain_rounds_per_s: f64,
    /// What the checks found wrong.
    pub problems: Vec<String>,
}

/// Runs one workload, untraced or traced.
pub fn run_workload(spec: &'static Spec, args: &Args) -> io::Result<Outcome> {
    let sc = Scenario::new(spec, args.seed, args.units(spec));
    std::fs::create_dir_all(&args.out_dir)?;
    if args.trace {
        return layers::traced(&sc, args);
    }
    // Half of the set-ups come before the run and half after it, so that a
    // bad few seconds of the host cannot cover them all.
    let (setups, setup_seconds) = args.setups();
    let before = setups.div_ceil(2);
    let mut setups_s = fresh_setups_s(&sc, before, setup_seconds / 2.0, &args.out_dir)?;
    let (verdict, engine) = match spec.transport {
        Transport::Engine => {
            let m = measure_engine(&sc, &EngineOpts::default(), args.tamper);
            (m.verdict.clone(), m)
        }
        Transport::Net => {
            let m = measure_net(&sc, args.tamper, &args.out_dir)?;
            (m.verdict, m.engine)
        }
    };
    setups_s.extend(fresh_setups_s(
        &sc,
        setups - before,
        setup_seconds / 2.0,
        &args.out_dir,
    )?);
    Ok(Outcome {
        correct: verdict.correct(),
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: engine_metrics(&sc, &engine, &setups_s),
        contention_ratio: engine.profile.contention_ratio(),
        plain_rounds_per_s: sc.unit_rounds() as f64 / engine.profile.raw_unit_s,
        problems: verdict.problems,
    })
}

/// Runs what the arguments ask for and prints it. The last line printed is
/// the JSON object of the last workload run. Returns whether every run was
/// correct.
pub fn run(args: &Args) -> io::Result<bool> {
    println!(
        "# proauth benchmark: nproc={} seed={} seconds={} trace={} smoke={}",
        host::nproc(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    let specs: Vec<&'static Spec> = match args.workload {
        Some(spec) => vec![spec],
        None => WORKLOADS.iter().collect(),
    };
    let mut all_correct = true;
    for spec in specs {
        println!(
            "# workload {}: n={} t={} group={} units={} sign requests/unit={} \
             (open loop on the round clock; engine rounds run back to back, so the generator is never late)",
            spec.name,
            spec.n,
            spec.t,
            spec.group,
            args.units(spec),
            spec.sign_slots
        );
        let started = std::time::Instant::now();
        let outcome = run_workload(spec, args)?;
        print!("{}", table(spec.name, &outcome.metrics));
        println!(
            "host.contention_ratio  {:.3}  (median unit as it went / uncontended unit; informational)",
            outcome.contention_ratio
        );
        if outcome.contention_ratio > 1.25 {
            println!("# warning: the host added more than 25% to the median unit");
        }
        println!(
            "host.plain_rounds_per_s  {:.6}  (plain per-round minima, no reference kernel; informational)",
            outcome.plain_rounds_per_s
        );
        for p in &outcome.problems {
            println!("# problem: {p}");
        }
        println!(
            "# {}: correct={} attempted={} failed={} wall={:.1}s",
            spec.name,
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            started.elapsed().as_secs_f64()
        );
        println!(
            "{}",
            result_json(
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                &outcome.metrics
            )
        );
        all_correct &= outcome.correct;
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|s| (*s).to_owned())).unwrap()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_ok(&[
            "--workload",
            "sign-s256-n7",
            "--seed",
            "42",
            "--seconds",
            "16",
            "--trace",
            "1",
        ]);
        assert_eq!(a.workload.unwrap().name, "sign-s256-n7");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke, a.setups().0),
            (42, 16, true, false, SETUPS)
        );
        let b = parse_ok(&["--smoke"]);
        assert!(b.workload.is_none() && b.smoke && b.setups() == (3, 0.0) && !b.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        let bad = |args: &[&str]| Args::parse(args.iter().map(|s| (*s).to_owned())).is_err();
        assert!(bad(&["--workload", "nope"]));
        assert!(bad(&["--trace", "2"]));
        assert!(bad(&["--seed"]));
        assert!(bad(&["--seconds", "0"]));
        assert!(bad(&["--frobnicate"]));
        assert!(bad(&["--setups", "3"]));
    }
}
