//! Weight-store shelf geometry under the host kernel: a blob packed for
//! another kernel's `nr×kc×nc` must not attach to a service running
//! `MicroKernelKind::host()`; it is skipped by the geometry check
//! before any digest is computed, the request packs live and still
//! resolves to the right bits. A blob packed with the service's own
//! configuration attaches and packs zero B bytes.
//!
//! This binary holds a single test so that the process-wide telemetry
//! totals it reads (packed-B bytes, store verifies) move only with it.

use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::prepack::PrepackedB;
use dgemm_core::service::{GemmService, ServiceConfig};
use dgemm_core::{store, Transpose};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgemm-geom-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn packed_b_bytes() -> u64 {
    dgemm_core::telemetry::snapshot().total_packed_b_bytes()
}

/// Boot a service on `dir`'s shelf, serve one request, and return the
/// result, the packed-B bytes it cost, and the final status JSON.
fn serve_once(
    dir: &Path,
    cfg: GemmConfig,
    a: &Arc<Matrix>,
    b: &Arc<Matrix>,
) -> (Matrix, u64, String) {
    let svc = GemmService::new(ServiceConfig {
        weight_store: Some(dir.to_path_buf()),
        gemm: cfg,
        ..ServiceConfig::default()
    });
    let boot = svc.status_json();
    assert!(
        boot.contains("\"shelf\":1,\"loads\":1,\"load_failures\":0,\"attaches\":0"),
        "the blob loads onto the shelf whatever its geometry: {boot}"
    );
    let before = packed_b_bytes();
    let got = svc
        .submit("geom", 1.0, Arc::clone(a), Transpose::No, Arc::clone(b))
        .expect("admitted")
        .wait()
        .expect("served");
    let packed = packed_b_bytes() - before;
    let status = svc.status_json();
    svc.shutdown();
    (got, packed, status)
}

#[test]
fn shelf_attaches_only_blobs_of_the_host_geometry() {
    let host = MicroKernelKind::host();
    // The paper's 8×6, or 8×4 when the host kernel itself is 8×6.
    let foreign = if host.nr() == 6 {
        MicroKernelKind::Mk8x4
    } else {
        MicroKernelKind::Mk8x6
    };
    let cfg = GemmConfig::for_kernel(host, 1);
    let foreign_cfg = GemmConfig::for_kernel(foreign, 1);
    let (m, n, k) = (37, 61, 300);
    let a = Arc::new(Matrix::random(m, k, 4101));
    let b = Arc::new(Matrix::random(k, n, 4102));
    let mut want = Matrix::zeros(m, n);
    gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &b.view(),
        0.0,
        &mut want.view_mut(),
        &cfg,
    );
    let telemetry_on = packed_b_bytes() > 0;

    let cold_dir = scratch_dir("foreign");
    let blob = PrepackedB::from_matrix(&foreign_cfg, &b.view()).expect("prepack");
    store::save(&cold_dir.join("w.dgemm"), &blob).expect("save");
    let (got, packed, status) = serve_once(&cold_dir, cfg, &a, &b);
    assert_eq!(got.as_slice(), want.as_slice(), "cold result bit-identical");
    assert!(
        status.contains("\"attaches\":0,\"verifies\":0,\"verify_failures\":0"),
        "a {} blob must be skipped by geometry, not verified: {status}",
        foreign.label()
    );
    if telemetry_on {
        assert!(packed > 0, "the request packs B live");
    }

    let warm_dir = scratch_dir("host");
    let blob = PrepackedB::from_matrix(&cfg, &b.view()).expect("prepack");
    store::save(&warm_dir.join("w.dgemm"), &blob).expect("save");
    let (got, packed, status) = serve_once(&warm_dir, cfg, &a, &b);
    assert_eq!(got.as_slice(), want.as_slice(), "warm result bit-identical");
    assert!(
        status.contains("\"attaches\":1,\"verifies\":1,\"verify_failures\":0"),
        "a {} blob attaches: {status}",
        host.label()
    );
    assert_eq!(packed, 0, "the attached blob packs zero B bytes");

    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&warm_dir);
}
