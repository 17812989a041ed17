//! `compare A.json B.json`: is set B worse than set A?
//!
//! Per (workload, end-to-end metric): both medians, the ratio B/A with
//! its base, the bound, and a verdict — `unresolved` where either
//! set's own run-to-run spread is wider than the bound (the metric
//! cannot tell a change of that size from noise), else `worse` when
//! B's median is worse than A's by more than the bound, else `ok`.

use crate::names;
use crate::parent::read_stats;
use crate::stats::Stat;
use crate::workloads::WORKLOADS;
use glap_profile::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// By which share of `a`'s median `b`'s median is worse (negative when
/// it is better).
pub fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn verdict(better: &str, bound: f64, a: &Stat, b: &Stat) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worsening(better, a.median, b.median) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the table; `Ok(true)` when no row is `worse`.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let (a, b) = (Json::parse(a_text)?, Json::parse(b_text)?);
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut clean = true;
    for w in &WORKLOADS {
        let b_stats = read_stats(&b, w.name);
        for (name, sa) in read_stats(&a, w.name) {
            let Some(m) = names::end_to_end(&name) else {
                continue;
            };
            let Some((_, sb)) = b_stats.iter().find(|(n, _)| *n == name) else {
                return Err(format!("{}/{name} is missing from the second set", w.name));
            };
            let v = verdict(m.better, m.bound, &sa, sb);
            clean &= v != Verdict::Worse;
            println!(
                "{:<20} {:<16} {:>14.6} {:>14.6} {:>9.4} {:>6.2}  {}",
                w.name,
                name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                m.bound,
                match v {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Worse => format!("worse ({} is better)", m.better),
                    Verdict::Unresolved => format!(
                        "unresolved (spread A {:.3}, B {:.3})",
                        sa.spread(),
                        sb.spread()
                    ),
                }
            );
        }
    }
    println!("ratios are B's median over A's median (base: A, in the metric's unit)");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Stat {
        Stat {
            median,
            min: median * 0.99,
            max: median * 1.01,
            n: 5,
            iqr: median * 0.01,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(
            verdict("lower", 0.1, &tight(10.0), &tight(10.9)),
            Verdict::Ok
        );
        assert_eq!(
            verdict("lower", 0.1, &tight(10.0), &tight(11.2)),
            Verdict::Worse
        );
        assert_eq!(
            verdict("lower", 0.1, &tight(10.0), &tight(5.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict("higher", 0.1, &tight(10.0), &tight(8.8)),
            Verdict::Worse
        );
        assert_eq!(
            verdict("higher", 0.1, &tight(10.0), &tight(12.0)),
            Verdict::Ok
        );
        let noisy = Stat {
            iqr: 3.0,
            ..tight(10.0)
        };
        assert_eq!(
            verdict("lower", 0.1, &noisy, &tight(20.0)),
            Verdict::Unresolved
        );
    }
}
