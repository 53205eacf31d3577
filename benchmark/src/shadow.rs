//! Checks and shadow replays that run after the timed loop.
//!
//! The serial-oracle check runs in every run, since it counts into the
//! failures. The library replay runs only in traced runs: it times the
//! steps a served query pays on a pooled machine, one public call at a
//! time, for a seeded sample of the requests the loop sent.

use crate::trace::Tracer;
use pluto_core::serve::{serial_oracle, QuerySpec};
use pluto_core::session::{CostReport, Session};
use pluto_core::PlutoError;

/// Runs `spec` through `serial_oracle` and compares it bit for bit with
/// what the service returned.
pub fn oracle_matches(
    tr: &mut Tracer,
    req: u64,
    spec: &QuerySpec,
    values: &[u64],
    report: &CostReport,
) -> bool {
    match tr.span("session.oracle", req, || serial_oracle(spec)) {
        Ok((v, r)) => v == values && r == *report,
        Err(_) => false,
    }
}

/// Times, on a fresh session's machine: a reset, loading the table into
/// the just-reset machine, and a warm query once the first query on the
/// loaded table has run.
pub fn library_replay(tr: &mut Tracer, req: u64, spec: &QuerySpec) -> Result<(), String> {
    let err = |e: PlutoError| format!("library replay of request {req}: {e}");
    let mut session = tr
        .span("session.build", req, || {
            Session::with_config(spec.config.clone())
        })
        .map_err(err)?;
    let machine = session.machine_mut();
    tr.span("library.reset", req, || machine.reset());
    tr.span("library.load", req, || machine.preload(&spec.lut))
        .map_err(err)?;
    machine.apply(&spec.lut, &spec.inputs).map_err(err)?;
    let warm = tr
        .span("library.apply_warm", req, || {
            machine.apply(&spec.lut, &spec.inputs)
        })
        .map_err(err)?;
    if spec.lut.apply_all(&spec.inputs).map_err(err)? != warm.values {
        return Err(format!(
            "library replay of request {req} returned wrong values"
        ));
    }
    Ok(())
}
