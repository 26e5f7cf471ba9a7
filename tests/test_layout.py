"""The batched kernels give the same bits whatever the memory layout of
their inputs: a C-contiguous array, a Fortran-ordered copy of it, and a
strided view of a larger array that holds the same values.

The bit-for-bit claims between a batch and its rows, and between one pass
of several potentials and one pass per potential, rest on every kernel
rounding alike on equal values.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from qck.ambient import (AmbientSpace, DefiniteLogFamily, LogFamily,
                         potential_metric, radial_unit_jets)
from qck.curvature import curvature_tensors, point_jets
from qck.qch import adapted_frames, bochner_arrays, frame_fit, shape_arrays
from qck.sampling import radial_points


def strided(a):
    """The values of a in every other slot of a larger array."""
    a = np.asarray(a)
    out = np.zeros(a.shape + (2,))
    out[..., 0] = a
    return out[..., 0]


LAYOUTS = {"fortran": np.asfortranarray, "strided": strided}


def same(got, want):
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert np.array_equal(g, w, equal_nan=True)


def relaid(jet, layout):
    """The jet with every array in the given layout."""
    return replace(jet, **{f.name: layout(getattr(jet, f.name))
                           for f in fields(jet)
                           if isinstance(getattr(jet, f.name), np.ndarray)})


def pass_inputs(signature, n):
    """A jet, its curvature tensors, unit field and frames at 6 points."""
    space = AmbientSpace(n, signature)
    family = (LogFamily(-1.0, 1.0) if signature == "lorentz"
              else DefiniteLogFamily(2.0, 1.0))
    window = (1.1, 3.0) if signature == "lorentz" else (0.4, 2.0)
    X = np.array(radial_points(space, 6, *window, seed=n))
    jet = point_jets(potential_metric(space, family), X)
    R = curvature_tensors(jet)
    xi, dxi, _ = radial_unit_jets(space, jet)
    F, signs, _ = adapted_frames(jet.G, jet.J, xi)
    return jet, R, xi, dxi, F, signs


CASES = [(s, n) for s in ("lorentz", "definite") for n in (2, 3, 4)]


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("signature,n", CASES)
class TestLayout:
    def test_curvature_tensors(self, signature, n, layout):
        jet, R, *_ = pass_inputs(signature, n)
        assert np.array_equal(
            curvature_tensors(relaid(jet, LAYOUTS[layout])), R)

    def test_adapted_frames(self, signature, n, layout):
        jet, _, xi, _, F, signs = pass_inputs(signature, n)
        to = LAYOUTS[layout]
        same(adapted_frames(to(jet.G), to(jet.J), to(xi)), (F, signs))

    def test_shape_arrays(self, signature, n, layout):
        jet, _, _, dxi, F, signs = pass_inputs(signature, n)
        to = LAYOUTS[layout]
        same(shape_arrays(relaid(jet, to), to(F), to(signs), to(dxi)),
             shape_arrays(jet, F, signs, dxi))

    def test_frame_fit(self, signature, n, layout):
        _, R, _, _, F, signs = pass_inputs(signature, n)
        to = LAYOUTS[layout]
        same(frame_fit(to(R), to(F), to(signs)), frame_fit(R, F, signs))

    def test_bochner_arrays(self, signature, n, layout):
        jet, R, *_ = pass_inputs(signature, n)
        to = LAYOUTS[layout]
        assert np.array_equal(bochner_arrays(to(R), to(jet.G), to(jet.J)),
                              bochner_arrays(R, jet.G, jet.J))
