"""BAL problem files: parsing, serialization, pruning, and randomized starting states.

The BAL plain-text format is:

    <num_cameras> <num_points> <num_observations>
    <cam_idx> <point_idx> <x> <y>          (one line per observation)
    <9 reals per camera>                   (angle-axis, translation, focal, k1, k2)
    <3 reals per point>

Tokens are whitespace-separated, in any layout; every literal Python's ``int``
(indices and counts) or ``float`` (measurements and parameters) reads is
accepted. ``parse_bal`` converts each block in bulk and walks the tokens one by
one only to name the first error of a malformed text and its line.
"""

from __future__ import annotations

import bz2
import functools
import gzip
import logging
import math
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, NoReturn

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


def parse_bal(stream: IO[str]) -> BaProblem:
    """Parse a BAL-format text stream into a :class:`BaProblem`.

    The text is split on whitespace once. The header is read as three ints;
    the parameter block and each observation column (camera index, point
    index, x, y) are converted by one ``np.array`` call each, which applies
    Python's ``int`` or ``float`` to every token; then the token count and
    the index ranges are checked. A text that fails a conversion or a check
    is walked token by token (``_raise_first_error``) to raise
    :class:`BalParseError` for its first offending token in file order:
    malformed headers, out-of-range indices, truncated files, non-numeric
    tokens and trailing data.
    """
    text = stream.read()
    problem = _convert(text.split())
    if problem is None:
        _raise_first_error(text)
    return problem


def _convert(toks: list[str]) -> BaProblem | None:
    """The problem the tokens spell, or None if a count, a conversion or a range check fails.

    Consumes ``toks``: the parameters are converted first, then each
    observation column as a strided slice of what is left, and each block's
    strings are dropped as soon as it is converted, so the peak holds the
    tokens and about one column more.
    """
    try:
        n_cam, n_lm, n_obs = map(int, toks[:3])
    except ValueError:
        return None
    end = 3 + 4 * n_obs
    n_cam_params = CAMERA_FIELDS * n_cam
    if min(n_cam, n_lm, n_obs) < 0 or len(toks) != end + n_cam_params + POINT_FIELDS * n_lm:
        return None
    try:
        params = np.array(toks[end:], dtype=np.float64)
        del toks[end:]
        columns = []
        for stride, dtype in zip((4, 3, 2, 1), (np.int64, np.int64, np.float64, np.float64)):
            columns.append(np.array(toks[3::stride], dtype=dtype))
            del toks[3::stride]
    except (ValueError, OverflowError):  # a non-numeric token, or an index beyond int64
        return None
    cams, points, x, y = columns
    if n_obs and (cams.min() < 0 or cams.max() >= n_cam or points.min() < 0 or points.max() >= n_lm):
        return None
    return BaProblem(
        num_cameras=n_cam,
        num_landmarks=n_lm,
        num_observations=n_obs,
        camera_indices=cams,
        landmark_indices=points,
        measurements=np.column_stack([x, y]),
        metric_cameras=params[:n_cam_params].reshape(n_cam, CAMERA_FIELDS),
        metric_points=params[n_cam_params:].reshape(n_lm, POINT_FIELDS),
    )


def _raise_first_error(text: str) -> NoReturn:
    """Walk the tokens of a text ``_convert`` refused and raise its first error.

    Tokens are read in file order, an observation's as camera index, its
    range, point index, its range, x, y. A token's line is 1 + the number of
    newlines before it; a truncation takes the line of the last token, and an
    empty text line 0. The walk reads only the tokens present, so a header
    count beyond any allocatable size ends as a truncation.
    """
    tokens = ((n, tok) for n, row in enumerate(text.split("\n"), start=1) for tok in row.split())
    line = 0

    def take(what: str, kind: type) -> int | float:
        nonlocal line
        for line, tok in tokens:
            try:
                return kind(tok)
            except ValueError:
                raise BalParseError(line, f"expected integer {what}, got {tok!r}" if kind is int
                                    else f"non-numeric token for {what}: {tok!r}") from None
        raise BalParseError(line, f"truncated file: expected {what}")

    n_cam, n_lm, n_obs = (take(what, int) for what in ("camera count", "point count",
                                                        "observation count"))
    if min(n_cam, n_lm, n_obs) < 0:
        raise BalParseError(line, "malformed header: negative count")
    for _ in range(n_obs):
        for what, bound in (("camera index", n_cam), ("point index", n_lm)):
            index = take(what, int)
            if not 0 <= index < bound:
                raise BalParseError(line, f"{what} {index} out of range [0, {bound})")
        take("measurement x", float)
        take("measurement y", float)
    for count, fields, name in ((n_cam, CAMERA_FIELDS, "camera {} parameter {}"),
                                (n_lm, POINT_FIELDS, "point {} coordinate {}")):
        for i in range(count):
            for j in range(fields):
                take(name.format(i, j), float)
    for line, _ in tokens:  # every token up to here is valid, so one is left over
        break
    raise BalParseError(line, "trailing data after point block")


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
