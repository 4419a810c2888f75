"""BAL problem files: parsing, serialization, pruning, and randomized starting states.

The BAL plain-text format is:

    <num_cameras> <num_points> <num_observations>
    <cam_idx> <point_idx> <x> <y>          (one line per observation)
    <9 reals per camera>                   (angle-axis, translation, focal, k1, k2)
    <3 reals per point>

Tokens are whitespace-separated; decimal and scientific notation are accepted.
"""

from __future__ import annotations

import array
import bz2
import functools
import gzip
import io
import logging
import math
import warnings
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterator

import numpy as np
import scipy.sparse

from .objective import ETA, solve_landmarks, stage1_weights

logger = logging.getLogger(__name__)

CAMERA_FIELDS = 9
POINT_FIELDS = 3
# Landmarks seen by fewer distinct cameras are pruned (``prune_underobserved``).
MIN_CAMERAS = 2


class BalParseError(ValueError):
    """Malformed BAL input; carries the 1-based line number of the offending token."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class BalReadError(OSError):
    """A BAL input that cannot be read (missing, a directory, corrupt compression, not
    UTF-8), that holds a non-finite measurement, or that leaves nothing to solve once
    under-observed landmarks are pruned."""


def _frozen(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BaProblem:
    """Observation graph of a bundle adjustment problem.

    Immutable after construction; safe to share read-only across threads.
    ``metric_cameras`` rows hold (angle-axis[3], translation[3], focal, k1, k2)
    and are only consumed by the metric upgrade stage.
    """

    num_cameras: int
    num_landmarks: int
    num_observations: int
    camera_indices: np.ndarray  # (n_obs,) int64
    landmark_indices: np.ndarray  # (n_obs,) int64
    measurements: np.ndarray  # (n_obs, 2) float64
    metric_cameras: np.ndarray | None = None  # (num_cameras, 9)
    metric_points: np.ndarray | None = None  # (num_landmarks, 3)

    def __post_init__(self):
        object.__setattr__(self, "camera_indices", _frozen(self.camera_indices, np.int64))
        object.__setattr__(self, "landmark_indices", _frozen(self.landmark_indices, np.int64))
        object.__setattr__(self, "measurements", _frozen(self.measurements))
        if self.metric_cameras is not None:
            object.__setattr__(self, "metric_cameras", _frozen(self.metric_cameras))
        if self.metric_points is not None:
            object.__setattr__(self, "metric_points", _frozen(self.metric_points))
        n = self.num_observations
        if len(self.camera_indices) != n or len(self.landmark_indices) != n:
            raise ValueError("observation count does not match index arrays")
        if self.measurements.shape != (n, 2):
            raise ValueError("measurement array must be (num_observations, 2)")
        if n and (self.camera_indices.min() < 0 or self.camera_indices.max() >= self.num_cameras):
            raise ValueError("camera index out of range")
        if n and (self.landmark_indices.min() < 0 or self.landmark_indices.max() >= self.num_landmarks):
            raise ValueError("landmark index out of range")

    @functools.cached_property
    def plan(self) -> ObservationPlan:
        """The distinct (camera, landmark) pairs the normal equations sum over, built on first use."""
        return ObservationPlan.build(self)

    def rescaled(self, scale: float) -> BaProblem:
        """The same observation graph with every measurement divided by ``scale``.

        The plan depends on the indices only, so the new problem shares this
        problem's plan instead of building its own.
        """
        out = replace(self, measurements=self.measurements / scale)
        out.__dict__["plan"] = self.plan  # fill the cached property
        return out

    @functools.cached_property
    def pair_weights(self) -> np.ndarray:
        """Per-pair measurement weights, built on first use.

        The read-only (4, n_pairs) sums, over each of the plan's distinct
        pairs, of the weights (1, m0, m1, |m|^2) of ``objective.stage1_weights``:
        row 0 counts the pair's observations, rows 1-2 sum its measurements
        and row 3 their squared norms. Every observation of a pair shares its
        camera and landmark, and each linearization is linear in these weights,
        so it sums over pairs instead of observations. The sums start from
        +0.0, so a -0.0 measurement gives the weight +0.0.
        """
        pairs, n_pairs = self.plan.observation_pair, len(self.plan.pair_camera)
        return _frozen(np.stack([np.bincount(pairs, row, n_pairs)
                                 for row in stage1_weights(self.measurements)]))

    @functools.cached_property
    def measurement_weights(self) -> scipy.sparse.csr_array:
        """Per-pair measurement weights as a sparse matrix, built on first use.

        A (num_landmarks, 4 num_cameras) CSR matrix: row l, columns 4c..4c+3
        hold the ``pair_weights`` of the pair (c, l), laid out in the plan's
        landmark-major pair order. Its product with a per-camera table gives
        the stage-1 landmark normal equations.
        """
        plan = self.plan
        order = plan.landmark_pairs
        cols = 4 * plan.pair_camera[order, None] + np.arange(4)
        return scipy.sparse.csr_array((self.pair_weights.T[order].ravel(), cols.ravel(),
                                       4 * plan.landmark_pair_ptr),
                                      shape=(self.num_landmarks, 4 * self.num_cameras))


@dataclass(frozen=True)
class ObservationPlan:
    """The distinct (camera, landmark) pairs of a problem, camera-major and landmark-major.

    The linearization works per distinct pair: every observation of a pair
    shares its camera and landmark, so the pair's measurement weights are
    summed once (``BaProblem.pair_weights``) and each pair is linearized
    once. Pairs are stored camera-major (landmarks increasing within a
    camera), so camera c owns the contiguous pairs
    ``pair_camera_ptr[c]:pair_camera_ptr[c + 1]``. ``landmark_pairs`` lists
    the pairs landmark-major (cameras increasing within a landmark), landmark
    l owning ``landmark_pair_ptr[l]:landmark_pair_ptr[l + 1]`` of it.
    ``observation_pair`` maps each observation to its pair. Unobserved
    cameras and landmarks get empty segments, and a landmark's segment length
    is its count of distinct cameras, which is what ``prune_underobserved``
    reads. ``build`` is the one place that enumerates pairs. All arrays are
    read-only, since one plan serves pruning and every linearization.
    """

    observation_pair: np.ndarray  # (n_obs,) pair of each observation
    pair_camera: np.ndarray  # (n_pairs,) camera of each pair, non-decreasing
    pair_landmark: np.ndarray  # (n_pairs,) landmark of each pair, increasing within a camera
    pair_camera_ptr: np.ndarray  # (n_cameras + 1,)
    landmark_pairs: np.ndarray  # (n_pairs,) pairs in landmark-major order
    landmark_pair_ptr: np.ndarray  # (n_landmarks + 1,)

    def __post_init__(self):
        for name, value in vars(self).items():
            object.__setattr__(self, name, _frozen(value, np.int64))

    @classmethod
    def build(cls, problem: BaProblem) -> ObservationPlan:
        n_l = max(problem.num_landmarks, 1)
        keys, observation_pair = np.unique(problem.camera_indices * n_l + problem.landmark_indices,
                                           return_inverse=True)
        pair_camera, pair_landmark = np.divmod(keys, n_l)
        return cls(
            observation_pair=observation_pair,
            pair_camera=pair_camera,
            pair_landmark=pair_landmark,
            pair_camera_ptr=_segment_pointers(pair_camera, problem.num_cameras),
            landmark_pairs=np.argsort(pair_landmark, kind="stable"),
            landmark_pair_ptr=_segment_pointers(pair_landmark, problem.num_landmarks),
        )

    @property
    def num_cameras(self) -> int:
        return len(self.pair_camera_ptr) - 1

    @property
    def num_landmarks(self) -> int:
        return len(self.landmark_pair_ptr) - 1

    def factor_matrices(self, width: int) -> tuple[scipy.sparse.sparray, ...]:
        """Templates of the sparse matrices that wrap the coupling factors, cached per width.

        X (n_pairs x 4 n_cameras): row p holds four entries, at columns
        4c..4c+3 of its camera c. Psi (3 n_pairs x width n_landmarks): rows
        3p..3p+2 each hold ``width`` entries, at the columns of pair p's
        landmark. Returns X and Psi in CSR form and X^T and Psi^T as their CSC
        views. Their indices are read-only and their data a zero placeholder;
        each linearization takes shallow copies that hold its own factors.
        """
        cache = self.__dict__.setdefault("_factor_matrices", {})
        if width not in cache:
            n_pairs, n_cameras = len(self.pair_camera), self.num_cameras
            cols = width * self.pair_landmark[:, None, None] + np.arange(width)
            xi = _index_only_csr(4 * self.pair_camera[:, None] + np.arange(4), 4 * n_cameras)
            psi = _index_only_csr(np.broadcast_to(cols, (n_pairs, 3, width)),
                                  width * self.num_landmarks)
            cache[width] = xi, psi, xi.T, psi.T
        return cache[width]

    @functools.cached_property
    def landmark_segments(self) -> scipy.sparse.csr_array:
        """(n_landmarks, n_pairs) CSR of ones: row l picks landmark l's pairs."""
        n_pairs = len(self.pair_camera)
        return scipy.sparse.csr_array(
            (np.ones(n_pairs), self.landmark_pairs, self.landmark_pair_ptr),
            shape=(self.num_landmarks, n_pairs))

    def landmark_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-landmark sums of values listed in the plan's pair order; zero if unobserved.

        Each landmark's pairs are summed in ``landmark_pairs`` order (cameras
        increasing) by one product with ``landmark_segments``.
        """
        sums = self.landmark_segments @ values.reshape(len(values), math.prod(values.shape[1:]))
        return sums.reshape((self.num_landmarks,) + values.shape[1:])


def _index_only_csr(columns: np.ndarray, n_columns: int) -> scipy.sparse.csr_array:
    """A CSR matrix whose rows hold ``columns.shape[-1]`` entries each, at ``columns``
    (..., row width), with read-only indices (32-bit where they fit, as scipy
    prefers) and zero-stride placeholder data."""
    width, size = columns.shape[-1], columns.size
    dtype = np.int32 if max(size, n_columns) < 2**31 else np.int64
    return scipy.sparse.csr_array(
        (np.broadcast_to(0.0, size), _frozen(columns.ravel(), dtype),
         _frozen(np.arange(0, size + 1, width), dtype)),
        shape=(size // width, n_columns))


def _segment_pointers(keys: np.ndarray, n: int) -> np.ndarray:
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr


@dataclass(frozen=True)
class ProjectiveState:
    """Per-camera 3x4 projective matrices and per-landmark homogeneous 4-vectors.

    Stage-1 states keep the last landmark coordinate at exactly 1; stage-2
    states keep every vectorized camera and every landmark at unit norm.
    """

    cameras: np.ndarray  # (n_p, 3, 4)
    landmarks: np.ndarray  # (n_l, 4)

    def __post_init__(self):
        object.__setattr__(self, "cameras", _frozen(self.cameras))
        object.__setattr__(self, "landmarks", _frozen(self.landmarks))
        if self.cameras.ndim != 3 or self.cameras.shape[1:] != (3, 4):
            raise ValueError("cameras must be (n, 3, 4)")
        if self.landmarks.ndim != 2 or self.landmarks.shape[1] != 4:
            raise ValueError("landmarks must be (n, 4)")


def _tokens(stream: IO[str]) -> Iterator[tuple[int, str]]:
    for line_no, line in enumerate(stream, start=1):
        for tok in line.split():
            yield line_no, tok


class _TokenReader:
    def __init__(self, stream: IO[str]):
        self._it = _tokens(stream)
        self.line = 0

    def next_token(self, what: str) -> str:
        try:
            self.line, tok = next(self._it)
        except StopIteration:
            raise BalParseError(self.line, f"truncated file: expected {what}") from None
        return tok

    def next_int(self, what: str) -> int:
        tok = self.next_token(what)
        try:
            return int(tok)
        except ValueError:
            raise BalParseError(self.line, f"expected integer {what}, got {tok!r}") from None

    def next_float(self, what: str) -> float:
        tok = self.next_token(what)
        try:
            return float(tok)
        except ValueError:
            raise BalParseError(self.line, f"non-numeric token for {what}: {tok!r}") from None

    def at_end(self) -> bool:
        try:
            self.line, tok = next(self._it)
        except StopIteration:
            return True
        return False


def parse_bal(stream: IO[str]) -> BaProblem:
    """Parse a BAL-format text stream into a :class:`BaProblem`.

    Raises :class:`BalParseError` with a line number for malformed headers,
    out-of-range indices, truncated files, and non-numeric tokens.
    Well-formed text is converted in bulk; any other text goes through the
    token reader, which finds the first offending token and its line.
    """
    text = stream.read()
    problem = _parse_bulk(text)
    return problem if problem is not None else _parse_tokens(io.StringIO(text))


_OBSERVATION_DTYPE = [("camera", np.int64), ("point", np.int64), ("xy", np.float64, 2)]


def _loadtxt(text: str, dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty block warns; treat it as a misfit
        return np.loadtxt(io.StringIO(text), dtype=dtype, comments=None, ndmin=1)


def _parse_bulk(text: str) -> BaProblem | None:
    """The problem from the canonical layout, or None for any other text.

    The canonical layout is ASCII with the header on the first line and one
    observation per line; the parameters follow in any layout. ``np.loadtxt``
    accepts a subset of the literals Python's ``int`` and ``float`` accept
    and reads them to the same values, so the result equals the token
    reader's.
    """
    if not text.isascii():
        return None
    breaks = np.flatnonzero(np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("\n"))
    try:
        n_cam, n_lm, n_obs = map(int, text[:breaks[0]].split())
    except (IndexError, ValueError):
        return None
    if min(n_cam, n_lm, n_obs) <= 0 or len(breaks) <= n_obs:
        return None
    obs_end = breaks[n_obs] + 1
    try:
        obs = _loadtxt(text[breaks[0] + 1:obs_end], _OBSERVATION_DTYPE)
        meta = _loadtxt(text[obs_end:], np.float64).ravel()
    except (ValueError, UserWarning):
        return None
    cams, points = obs["camera"], obs["point"]
    if (len(obs) != n_obs or len(meta) != CAMERA_FIELDS * n_cam + POINT_FIELDS * n_lm
            or cams.min() < 0 or cams.max() >= n_cam or points.min() < 0 or points.max() >= n_lm):
        return None
    return BaProblem(
        num_cameras=n_cam,
        num_landmarks=n_lm,
        num_observations=n_obs,
        camera_indices=cams,
        landmark_indices=points,
        measurements=obs["xy"],
        metric_cameras=meta[:CAMERA_FIELDS * n_cam].reshape(n_cam, CAMERA_FIELDS),
        metric_points=meta[CAMERA_FIELDS * n_cam:].reshape(n_lm, POINT_FIELDS),
    )


def _parse_tokens(stream: IO[str]) -> BaProblem:
    rd = _TokenReader(stream)
    n_cam = rd.next_int("camera count")
    n_lm = rd.next_int("point count")
    n_obs = rd.next_int("observation count")
    if n_cam < 0 or n_lm < 0 or n_obs < 0:
        raise BalParseError(rd.line, "malformed header: negative count")

    # Arrays are built from the tokens actually read: the header counts are
    # untrusted and may exceed any allocatable size. Indices stay Python ints
    # until the end, since an index below a count beyond int64 only fails
    # once the file proves truncated.
    cam_idx, lm_idx, meas = [], [], array.array("d")
    for _ in range(n_obs):
        c = rd.next_int("camera index")
        if not 0 <= c < n_cam:
            raise BalParseError(rd.line, f"camera index {c} out of range [0, {n_cam})")
        p = rd.next_int("point index")
        if not 0 <= p < n_lm:
            raise BalParseError(rd.line, f"point index {p} out of range [0, {n_lm})")
        cam_idx.append(c)
        lm_idx.append(p)
        meas.append(rd.next_float("measurement x"))
        meas.append(rd.next_float("measurement y"))

    cams = array.array("d", (rd.next_float(f"camera {i} parameter {j}")
                             for i in range(n_cam) for j in range(CAMERA_FIELDS)))
    pts = array.array("d", (rd.next_float(f"point {i} coordinate {j}")
                            for i in range(n_lm) for j in range(POINT_FIELDS)))
    if not rd.at_end():
        raise BalParseError(rd.line, "trailing data after point block")

    return BaProblem(
        num_cameras=n_cam,
        num_landmarks=n_lm,
        num_observations=n_obs,
        camera_indices=np.array(cam_idx, dtype=np.int64),
        landmark_indices=np.array(lm_idx, dtype=np.int64),
        measurements=np.array(meas, dtype=np.float64).reshape(n_obs, 2),
        metric_cameras=np.array(cams, dtype=np.float64).reshape(n_cam, CAMERA_FIELDS),
        metric_points=np.array(pts, dtype=np.float64).reshape(n_lm, POINT_FIELDS),
    )


def write_bal(problem: BaProblem, stream: IO[str]) -> None:
    """Serialize a problem back to BAL text, losslessly (17 significant digits).

    Missing metric blocks are written as zeros so the output always follows
    the full grammar.
    """
    stream.write(f"{problem.num_cameras} {problem.num_landmarks} {problem.num_observations}\n")
    cams = problem.metric_cameras
    if cams is None:
        cams = np.zeros((problem.num_cameras, CAMERA_FIELDS))
    pts = problem.metric_points
    if pts is None:
        pts = np.zeros((problem.num_landmarks, POINT_FIELDS))
    # One % per block, not one write per value (half the time on large
    # problems); "%d" prints the indices, exact in float64, as integers.
    obs = np.column_stack([problem.camera_indices, problem.landmark_indices, problem.measurements])
    stream.write("%d %d %.17g %.17g\n" * len(obs) % tuple(obs.ravel().tolist()))
    params = np.concatenate([cams.ravel(), pts.ravel()])
    stream.write("%.17g\n" * len(params) % tuple(params.tolist()))


def load_bal(path: str | Path) -> BaProblem:
    """Read a BAL file from disk, transparently decompressing gzip or bzip2 input."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(3)
        if magic[:2] == b"\x1f\x8b":
            opener = gzip.open
        elif magic == b"BZh":
            opener = bz2.open
        else:
            opener = open
        with opener(path, "rt", encoding="utf-8") as fh:
            return parse_bal(fh)
    except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:  # reading, not parsing
        raise BalReadError(f"cannot read {path}: {exc}") from exc


def prune_underobserved(problem: BaProblem) -> BaProblem:
    """Drop landmarks seen by fewer than ``MIN_CAMERAS`` distinct cameras.

    Cameras left without observations are dropped as well; surviving cameras
    and landmarks are reindexed densely and metric blocks follow. Landmarks
    seen only once yield rank-deficient closed-form systems, so they are
    removed before any solving and never re-added. The counts come from the
    plan, so an input that needs no pruning comes back as is, holding the plan
    the solve then uses.
    """
    plan = problem.plan
    keep_lm = np.diff(plan.landmark_pair_ptr) >= MIN_CAMERAS
    if keep_lm.all() and (np.diff(plan.pair_camera_ptr) > 0).all():
        return problem

    obs_keep = keep_lm[problem.landmark_indices]
    # a camera that saw only dropped landmarks is empty too
    cam_seen = np.bincount(problem.camera_indices[obs_keep], minlength=problem.num_cameras) > 0
    logger.info("pruned %d under-observed landmarks and %d empty cameras",
                (~keep_lm).sum(), (~cam_seen).sum())
    return BaProblem(
        num_cameras=int(cam_seen.sum()),
        num_landmarks=int(keep_lm.sum()),
        num_observations=int(obs_keep.sum()),
        camera_indices=(np.cumsum(cam_seen) - 1)[problem.camera_indices[obs_keep]],
        landmark_indices=(np.cumsum(keep_lm) - 1)[problem.landmark_indices[obs_keep]],
        measurements=problem.measurements[obs_keep],
        metric_cameras=None if problem.metric_cameras is None else problem.metric_cameras[cam_seen],
        metric_points=None if problem.metric_points is None else problem.metric_points[keep_lm],
    )


def random_init(problem: BaProblem, seed: int, eta: float = ETA) -> ProjectiveState:
    """Build the randomized starting state for the first stage.

    Camera entries are i.i.d. standard normal from a Philox counter-based
    generator (stable across platforms for a given seed); landmarks are then
    set to their closed-form optimum given those cameras and normalized to a
    last coordinate of exactly 1. A pure function of (problem, seed, eta).
    """
    rng = np.random.Generator(np.random.Philox(int(seed) & 0xFFFFFFFFFFFFFFFF))
    cameras = rng.standard_normal((problem.num_cameras, 3, 4))
    zero_landmarks = np.zeros((problem.num_landmarks, 4))
    zero_landmarks[:, 3] = 1.0
    state = ProjectiveState(cameras=cameras, landmarks=zero_landmarks)
    landmarks = solve_landmarks(state, problem, eta).landmarks
    return ProjectiveState(cameras=cameras, landmarks=landmarks)
