//! CSV persistence for traces.
//!
//! Format: a header line `vm,round,cpu,mem` followed by one row per cell.
//! This is the interchange point for plugging *real* Google cluster trace
//! extracts into the harness: convert the task-usage table to this schema
//! (utilization fractions of the VM's request) and load it here.

use crate::trace::MaterializedTrace;
use glap_cluster::Resources;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Writes a trace to CSV.
pub fn save_csv(trace: &MaterializedTrace, path: &Path) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "vm,round,cpu,mem")?;
    for vm in 0..trace.n_vms() {
        for (round, r) in trace.series(vm).enumerate() {
            writeln!(out, "{vm},{round},{:.6},{:.6}", r.cpu(), r.mem())?;
        }
    }
    out.flush()
}

/// Reads a trace from CSV produced by [`save_csv`] (or an external
/// converter using the same schema). Cells absent from the file stay zero.
///
/// Rows need exactly four fields and finite utilizations, and the size
/// of the trace the largest `vm` and `round` imply, in bytes, must fit
/// in an `isize`; anything else is [`io::ErrorKind::InvalidData`].
pub fn load_csv(path: &Path) -> io::Result<MaterializedTrace> {
    let reader = BufReader::new(File::open(path)?);
    let mut rows: Vec<(usize, usize, f64, f64)> = Vec::new();
    let mut max_vm = 0usize;
    let mut max_round = 0usize;
    let mut lines = reader.lines();
    // Header.
    if let Some(h) = lines.next() {
        let h = h?;
        if h.trim() != "vm,round,cpu,mem" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected header: {h}"),
            ));
        }
    }
    for l in lines {
        let line = l?;
        if line.trim().is_empty() {
            continue;
        }
        let bad =
            |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad {what}: {line}"));
        let mut parts = line.split(',').map(str::trim);
        let (Some(vm), Some(round), Some(cpu), Some(mem), None) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) else {
            return Err(bad("row (want 4 fields)"));
        };
        let vm: usize = vm.parse().map_err(|_| bad("vm"))?;
        let round: usize = round.parse().map_err(|_| bad("round"))?;
        let finite = |s: &str| s.parse::<f64>().ok().filter(|v| v.is_finite());
        let cpu = finite(cpu).ok_or_else(|| bad("cpu"))?;
        let mem = finite(mem).ok_or_else(|| bad("mem"))?;
        max_vm = max_vm.max(vm);
        max_round = max_round.max(round);
        rows.push((vm, round, cpu, mem));
    }
    if rows.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "empty trace file",
        ));
    }
    let fits = |&(n_vms, rounds): &(usize, usize)| {
        n_vms
            .checked_mul(rounds)
            .and_then(|cells| cells.checked_mul(std::mem::size_of::<Resources>()))
            .is_some_and(|bytes| bytes <= isize::MAX as usize)
    };
    let dims = max_vm.checked_add(1).zip(max_round.checked_add(1));
    let Some((n_vms, rounds)) = dims.filter(fits) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace of vm {max_vm} x round {max_round} is too large"),
        ));
    };
    let mut trace = MaterializedTrace::zeroed(n_vms, rounds);
    for (vm, round, cpu, mem) in rows {
        trace.set(vm, round, Resources::new(cpu, mem));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::google::GoogleLikeTraceGen;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "glap_workload_test_{name}_{}.csv",
            std::process::id()
        ));
        p
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let gen = GoogleLikeTraceGen::default_stats();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let t = gen.generate(4, 20, &mut rng);
        let path = tmp("roundtrip");
        save_csv(&t, &path).unwrap();
        let back = load_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.n_vms(), t.n_vms());
        assert_eq!(back.rounds(), t.rounds());
        for vm in 0..4 {
            for r in 0..20 {
                assert!((back.get(vm, r).cpu() - t.get(vm, r).cpu()).abs() < 1e-5);
                assert!((back.get(vm, r).mem() - t.get(vm, r).mem()).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn load_rejects_bad_header() {
        let path = tmp("bad_header");
        std::fs::write(&path, "x,y,z\n1,2,3\n").unwrap();
        let err = load_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_empty_file() {
        let path = tmp("empty");
        std::fs::write(&path, "vm,round,cpu,mem\n").unwrap();
        let err = load_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_malformed_row() {
        let path = tmp("malformed");
        std::fs::write(&path, "vm,round,cpu,mem\n0,0,abc,0.5\n").unwrap();
        let err = load_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn load_str(name: &str, body: &str) -> io::Result<MaterializedTrace> {
        let path = tmp(name);
        std::fs::write(&path, body).unwrap();
        let loaded = load_csv(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn load_rejects_an_overflowing_vm_index() {
        let body = "vm,round,cpu,mem\n18446744073709551615,0,0.5,0.5\n";
        let err = load_str("huge_vm", body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let body = "vm,round,cpu,mem\n4294967296,4294967296,0.5,0.5\n";
        let err = load_str("huge_cells", body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_non_finite_values() {
        for (name, row) in [("nan_cpu", "0,0,NaN,0.5"), ("inf_mem", "0,0,0.5,inf")] {
            let err = load_str(name, &format!("vm,round,cpu,mem\n{row}\n")).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{row}");
        }
    }

    #[test]
    fn load_requires_exactly_four_fields() {
        for (name, row) in [("five", "0,0,0.5,0.5,0.5"), ("three", "0,0,0.5")] {
            let err = load_str(name, &format!("vm,round,cpu,mem\n{row}\n")).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{row}");
        }
    }

    #[test]
    fn sparse_rows_leave_zero_cells() {
        let path = tmp("sparse");
        std::fs::write(&path, "vm,round,cpu,mem\n1,2,0.5,0.25\n").unwrap();
        let t = load_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(t.n_vms(), 2);
        assert_eq!(t.rounds(), 3);
        assert_eq!(t.get(0, 0), Resources::ZERO);
        assert!((t.get(1, 2).cpu() - 0.5).abs() < 1e-9);
    }
}
