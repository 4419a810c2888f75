"""Seeded input generator for the solve benchmark.

Writes, for every requested seed, a BAL text problem ``<kind>-<seed>.txt``
and its ground truth ``<kind>-<seed>_gt.npz`` (rotations, translations,
focal lengths, points, and the observations exactly as written). The solver
only ever receives the BAL file; the ground truth stays with the benchmark.

Two kinds:

* ``ring`` - ``stratba.synth.make_ring_problem``: every camera sees every
  landmark, so all landmarks share one track length.
* ``bal`` - a BAL-shaped problem: cameras on a ring around a landmark cloud
  with perspective geometry, and long-tailed track lengths (truncated Zipf,
  at least ``--min-track`` views) over random subsets of the cameras, so many
  track-length groups appear.

For both kinds the camera and point blocks of the file hold zeros apart from
the focal length, which the metric stage reads.

Usage:

    python3 perfbench/gen.py bal --cameras 30 --landmarks 1500 --seeds 1 2 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

NOISE_PX = 0.5
# bal kind: a ring of cameras around a unit Gaussian cloud, close enough for
# strong perspective.
RING_RADIUS = 20.0
FOCAL_PX = 1000.0


def _look_at_origin(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations and translations of cameras whose -z axis points at the origin."""
    rotations = np.empty((len(centers), 3, 3))
    for i, center in enumerate(centers):
        z_axis = center / np.linalg.norm(center)
        x_axis = np.cross([0.0, 0.0, 1.0], z_axis)
        x_axis /= np.linalg.norm(x_axis)
        rotations[i] = np.stack([x_axis, np.cross(z_axis, x_axis), z_axis])
    translations = -np.einsum("nij,nj->ni", rotations, centers)
    return rotations, translations


def track_lengths(rng: np.random.Generator, n_landmarks: int, n_cameras: int,
                  min_track: int, zipf: float) -> np.ndarray:
    """Truncated Zipf track lengths on [min_track, n_cameras]."""
    ks = np.arange(min_track, n_cameras + 1)
    p = (ks - min_track + 1.0) ** -zipf
    return rng.choice(ks, size=n_landmarks, p=p / p.sum())


def make_bal_shaped(n_cameras: int, n_landmarks: int, seed: int, *, min_track: int = 3,
                    zipf: float = 1.0) -> dict:
    """Ground truth and noisy observations (sorted by landmark, then camera)."""
    if not 2 <= min_track <= n_cameras:
        raise ValueError("need 2 <= min_track <= cameras")
    rng = np.random.Generator(np.random.Philox(seed))
    points = rng.standard_normal((n_landmarks, 3))
    angles = 2.0 * np.pi * np.arange(n_cameras) / n_cameras
    centers = np.stack([RING_RADIUS * np.cos(angles), RING_RADIUS * np.sin(angles),
                        0.05 * RING_RADIUS * rng.standard_normal(n_cameras)], axis=1)
    rotations, translations = _look_at_origin(centers)

    lengths = track_lengths(rng, n_landmarks, n_cameras, min_track, zipf)
    # Each landmark is seen by a random subset of cameras of its track length.
    ranks = rng.permuted(np.tile(np.arange(n_cameras), (n_landmarks, 1)), axis=1)
    seen = np.zeros((n_landmarks, n_cameras), dtype=bool)
    np.put_along_axis(seen, ranks, np.arange(n_cameras) < lengths[:, None], axis=1)
    lm_idx, cam_idx = np.nonzero(seen)

    p_cam = np.einsum("nij,nj->ni", rotations[cam_idx], points[lm_idx]) + translations[cam_idx]
    if (p_cam[:, 2] >= 0).any():
        raise ValueError("geometry places a landmark behind a camera")
    meas = -FOCAL_PX * p_cam[:, :2] / p_cam[:, 2:3]
    meas += NOISE_PX * rng.standard_normal(meas.shape)
    return dict(rotations=rotations, translations=translations,
                focal=np.full(n_cameras, FOCAL_PX), points=points,
                cam_idx=cam_idx, lm_idx=lm_idx, meas=meas)


def make_ring(n_cameras: int, n_landmarks: int, seed: int) -> dict:
    from scipy.spatial.transform import Rotation

    from stratba.synth import make_ring_problem

    p = make_ring_problem(n_cameras, n_landmarks, NOISE_PX, seed)
    return dict(rotations=Rotation.from_rotvec(np.array(p.metric_cameras[:, :3])).as_matrix(),
                translations=np.array(p.metric_cameras[:, 3:6]),
                focal=np.array(p.metric_cameras[:, 6]), points=np.array(p.metric_points),
                cam_idx=np.array(p.camera_indices), lm_idx=np.array(p.landmark_indices),
                meas=np.array(p.measurements))


def write_problem(gt: dict, stem: Path) -> None:
    """BAL text with 17 significant digits (lossless) plus the truth file."""
    n_cam, n_lm = len(gt["focal"]), len(gt["points"])
    cams = np.zeros((n_cam, 9))
    cams[:, 6] = gt["focal"]
    pts = np.zeros((n_lm, 3))
    lines = [f"{n_cam} {n_lm} {len(gt['meas'])}"]
    lines += [f"{c} {l} {m[0]:.17g} {m[1]:.17g}"
              for c, l, m in zip(gt["cam_idx"], gt["lm_idx"], gt["meas"])]
    lines += [f"{v:.17g}" for v in np.concatenate([cams.ravel(), pts.ravel()])]
    stem.with_suffix(".txt").write_text("\n".join(lines) + "\n")
    np.savez(stem.parent / f"{stem.name}_gt.npz", **gt)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kind", choices=("ring", "bal"))
    ap.add_argument("--cameras", type=int, required=True)
    ap.add_argument("--landmarks", type=int, required=True)
    ap.add_argument("--min-track", type=int, default=3, help="bal: shortest track")
    ap.add_argument("--zipf", type=float, default=1.0, help="bal: track-length exponent")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        if args.kind == "ring":
            gt = make_ring(args.cameras, args.landmarks, seed)
        else:
            gt = make_bal_shaped(args.cameras, args.landmarks, seed, min_track=args.min_track,
                                 zipf=args.zipf)
        write_problem(gt, out / f"{args.kind}-{seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
