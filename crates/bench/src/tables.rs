//! Formatters that print each of the paper's tables and figures with
//! paper-reported numbers beside measured ones.

use crate::testbed::{run_circus_echo, run_multicast_call, run_tcp_echo, run_udp_echo};
use analysis::{
    availability, availability_simulated, deadlock_probability, deadlock_probability_simulated,
    expected_max_exponential, harmonic, required_repair_time,
};
use simnet::{Syscall, SyscallCosts};
use std::fmt::Write as _;

/// Paper values for Table 4.1: (label, real, total, user, kernel).
pub const PAPER_TABLE_4_1: &[(&str, f64, f64, f64, f64)] = &[
    ("UDP", 26.5, 13.3, 0.8, 12.4),
    ("TCP", 23.2, 8.3, 0.5, 7.8),
    ("Circus n=1", 48.0, 24.1, 5.9, 18.2),
    ("Circus n=2", 58.0, 45.2, 10.0, 35.2),
    ("Circus n=3", 69.4, 66.8, 13.0, 53.8),
    ("Circus n=4", 90.2, 87.2, 16.8, 70.4),
    ("Circus n=5", 109.5, 107.2, 21.0, 86.1),
];

/// Paper values for Table 4.3: per-degree percentages for
/// (sendmsg, recvmsg, select, setitimer, gettimeofday, sigblock).
pub const PAPER_TABLE_4_3: &[(u32, [f64; 6])] = &[
    (1, [27.2, 9.2, 11.2, 8.0, 6.0, 5.5]),
    (2, [28.8, 10.6, 12.7, 7.6, 6.3, 5.2]),
    (3, [32.5, 11.9, 11.7, 7.2, 6.5, 5.0]),
    (4, [32.9, 10.7, 10.3, 7.0, 6.7, 4.8]),
    (5, [33.0, 11.1, 9.9, 6.8, 6.9, 4.6]),
];

fn row(out: &mut String, label: &str, paper: (f64, f64, f64, f64), measured: (f64, f64, f64, f64)) {
    let _ = writeln!(
        out,
        "{label:<12} | {:>6.1} {:>6.1} {:>6.1} {:>6.1} | {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
        paper.0, paper.1, paper.2, paper.3, measured.0, measured.1, measured.2, measured.3
    );
}

/// Table 4.1: performance of UDP, TCP, and Circus (ms per call).
pub fn table_4_1(calls: u32) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4.1: Performance of UDP, TCP, and Circus (ms/call)"
    );
    let _ = writeln!(
        out,
        "{:<12} | {:>27} | {:>27}",
        "", "--------- paper ---------", "-------- measured -------"
    );
    let _ = writeln!(
        out,
        "{:<12} | {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} {:>6}",
        "transport", "real", "cpu", "user", "kern", "real", "cpu", "user", "kern"
    );
    // Rows in PAPER_TABLE_4_1 order: UDP, TCP, then Circus n = 1..5.
    let echoes = [run_udp_echo(calls), run_tcp_echo(calls)]
        .into_iter()
        .chain((1..=5).map(|n| run_circus_echo(n, calls)));
    for (r, &(label, pr, pc, pu, pk)) in echoes.zip(PAPER_TABLE_4_1) {
        row(
            &mut out,
            label,
            (pr, pc, pu, pk),
            (r.real_ms, r.total_cpu_ms, r.user_ms, r.kernel_ms),
        );
    }
    let _ = writeln!(
        out,
        "\nShape checks: TCP < UDP; Circus n=1 ~ 2x UDP; linear growth in n."
    );
    out
}

/// Table 4.2: the syscall cost model (input calibration — identity by
/// construction, printed for completeness).
pub fn table_4_2() -> String {
    let costs = SyscallCosts::vax_4_2bsd();
    let mut out = String::new();
    let _ = writeln!(out, "Table 4.2: CPU time for 4.2BSD system calls (ms/call)");
    let _ = writeln!(out, "{:<14} {:>7} {:>9}", "system call", "paper", "charged");
    for (sys, paper) in [
        (Syscall::SendMsg, 8.1),
        (Syscall::RecvMsg, 2.8),
        (Syscall::Select, 1.8),
        (Syscall::SetITimer, 1.2),
        (Syscall::GetTimeOfDay, 0.7),
        (Syscall::SigBlock, 0.4),
    ] {
        let _ = writeln!(
            out,
            "{:<14} {:>7.1} {:>9.1}",
            sys.name(),
            paper,
            costs.cost(sys).as_millis_f64()
        );
    }
    let _ = writeln!(
        out,
        "(These are inputs: the simulator charges the paper's measured costs.)"
    );
    out
}

/// Table 4.3: execution profile of Circus replicated calls (% of total
/// client CPU per syscall, by degree of replication).
pub fn table_4_3(calls: u32) -> String {
    let syscalls = [
        Syscall::SendMsg,
        Syscall::RecvMsg,
        Syscall::Select,
        Syscall::SetITimer,
        Syscall::GetTimeOfDay,
        Syscall::SigBlock,
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4.3: Execution profile for Circus replicated calls (% of client CPU)"
    );
    let mut header = String::from("n   | paper:");
    for s in &syscalls {
        let _ = write!(header, " {:>7}", shorten(s.name()));
    }
    header.push_str(" | measured:");
    for s in &syscalls {
        let _ = write!(header, " {:>7}", shorten(s.name()));
    }
    let _ = writeln!(out, "{header}");
    for n in 1..=5usize {
        let r = run_circus_echo(n, calls);
        let (_, paper) = PAPER_TABLE_4_3[n - 1];
        let mut line = format!("{n:<3} |       ");
        for p in paper {
            let _ = write!(line, " {p:>7.1}");
        }
        line.push_str(" |          ");
        for s in &syscalls {
            let _ = write!(
                line,
                " {:>7.1}",
                r.client_cpu.fraction_of(s.index()) * 100.0
            );
        }
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(
        out,
        "\nShape check: sendmsg dominates and its share grows with replication;\n\
         the six calls account for more than half of the CPU time (Sec 4.4.1)."
    );
    out
}

fn shorten(name: &str) -> &str {
    &name[..name.len().min(7)]
}

/// Figure 4.8: per-call time vs degree of replication (the linear-growth
/// figure), as a text series with a linear fit.
pub fn fig_4_8(calls: u32) -> String {
    let paper = [48.0, 58.0, 69.4, 90.2, 109.5];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4.8: Circus real time per call vs degree of replication (ms)"
    );
    let _ = writeln!(out, "{:<3} {:>10} {:>10}", "n", "paper", "measured");
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for n in 1..=5usize {
        let r = run_circus_echo(n, calls);
        let _ = writeln!(out, "{n:<3} {:>10.1} {:>10.1}", paper[n - 1], r.real_ms);
        xs.push(n as f64);
        ys.push(r.real_ms);
    }
    let (slope, intercept) = analysis::linear_fit(&xs, &ys);
    let r2 = analysis::r_squared(&xs, &ys);
    let _ = writeln!(
        out,
        "linear fit: {slope:.1} ms/member + {intercept:.1} ms (R^2 = {r2:.3});\n\
         the paper's point-to-point sends add 10-20 ms of real time per member."
    );
    out
}

/// §4.4.2: multicast + exponential round trips gives `E[T] = H_n * r`.
pub fn fig_multicast_theory(calls: u32) -> String {
    let r = 20.0; // Mean round trip, ms.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Sec 4.4.2: multicast one-to-many call, exponential round trips (r = {r} ms)"
    );
    let _ = writeln!(
        out,
        "{:<4} {:>8} {:>12} {:>12} {:>8}",
        "n", "H_n", "H_n*r (ms)", "measured", "ratio"
    );
    for n in [1u32, 2, 4, 8, 16, 32, 64] {
        let expected = expected_max_exponential(n, r);
        let measured = run_multicast_call(n as usize, calls, r, 11);
        let _ = writeln!(
            out,
            "{n:<4} {:>8.3} {expected:>12.1} {measured:>12.1} {:>8.2}",
            harmonic(n),
            measured / expected
        );
    }
    let _ = writeln!(
        out,
        "Shape check: logarithmic growth in troupe size — 'the expected time per\n\
         call increases only logarithmically with the size of the troupe'."
    );
    out
}

/// Equation 5.1: troupe commit deadlock probability.
pub fn eq_5_1(trials: u32) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Eq 5.1: P[deadlock] = 1 - (1/k!)^(n-1)  (k conflicting txns, n members)"
    );
    let _ = writeln!(
        out,
        "{:<3} {:<3} {:>12} {:>12}",
        "k", "n", "analytic", "simulated"
    );
    for k in [2u32, 3, 4, 5] {
        for n in [2u32, 3, 5] {
            let a = deadlock_probability(k, n);
            let s = deadlock_probability_simulated(k, n, trials, 99);
            let _ = writeln!(out, "{k:<3} {n:<3} {a:>12.6} {s:>12.6}");
        }
    }
    let _ = writeln!(
        out,
        "Shape check: approaches certainty rapidly as k grows — the optimistic\n\
         protocol 'is therefore subject to starvation' under conflict (Sec 5.3.1)."
    );
    out
}

/// Figure 6.3 / Equations 6.1-6.2: troupe availability.
pub fn fig_6_3() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 6.3 / Eq 6.1: availability A = 1 - (lambda/(lambda+mu))^n"
    );
    let _ = writeln!(
        out,
        "(member lifetime 1/lambda = 1 h, replacement 1/mu = 6 min 40 s => lambda/mu = 1/9)"
    );
    let _ = writeln!(out, "{:<3} {:>12} {:>12}", "n", "analytic", "simulated");
    let (lambda, mu) = (1.0, 9.0);
    for n in 1..=5u32 {
        let a = availability(n, lambda, mu);
        let s = availability_simulated(n, lambda, mu, 300_000.0, 5);
        let _ = writeln!(out, "{n:<3} {a:>12.6} {s:>12.6}");
    }
    let _ = writeln!(out, "\nEq 6.2 (the paper's worked examples, A = 99.9%):");
    let t3 = required_repair_time(3, 1.0, 0.999);
    let t5 = required_repair_time(5, 1.0, 0.999);
    let _ = writeln!(
        out,
        "n=3: replacement <= {:.4} of lifetime (paper: 1/9 = {:.4}; 6 min 40 s per 1 h)",
        t3,
        1.0 / 9.0
    );
    let _ = writeln!(
        out,
        "n=5: replacement <= {t5:.3} of lifetime (paper: ~1/3; 20 min per 1 h)"
    );
    out
}

/// Tables 7.1/7.2: the stub compiler inventory, reinterpreted for this
/// reproduction (qualitative).
pub fn table_7_1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Tables 7.1/7.2: stub compilers");
    let _ = writeln!(
        out,
        "paper: Courier->C, Courier->Lisp, Lisp->Lisp, Modula-2->Modula-2"
    );
    let _ = writeln!(
        out,
        "here:  Courier-style IDL -> Rust (the `stubgen` crate)\n"
    );
    let _ = writeln!(out, "{:<28} {:<18}", "property", "this stub compiler");
    for (prop, val) in [
        ("interface language", "Courier-style"),
        ("stub language", "Rust (compiled)"),
        ("type declarations", "yes"),
        ("compile-time checking", "yes (rustc)"),
        ("run-time checking", "yes (internalize)"),
        ("explicit binding (7.3)", "always"),
        ("explicit replication (7.4)", "option"),
        ("recursive types", "rejected (7.1.4)"),
        ("multiple RETURNS", "tuple"),
        ("REPORTS errors", "Result<_, E>"),
    ] {
        let _ = writeln!(out, "{prop:<28} {val:<18}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_4_2_is_identity() {
        let t = table_4_2();
        assert!(t.contains("sendmsg"));
        assert!(t.contains("8.1"));
    }

    #[test]
    fn eq_5_1_matches() {
        let t = eq_5_1(2000);
        assert!(t.contains("0.5"));
    }

    #[test]
    fn fig_6_3_prints_examples() {
        let t = fig_6_3();
        assert!(t.contains("0.1111"));
    }

    #[test]
    fn small_table_4_1_runs() {
        let t = table_4_1(20);
        assert!(t.contains("UDP"));
        assert!(t.contains("Circus n=5"));
    }

    #[test]
    fn table_7_1_prints() {
        assert!(table_7_1().contains("explicit replication"));
    }
}
