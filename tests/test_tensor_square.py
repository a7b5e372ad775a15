"""The tensor squares reuse their algebra's arithmetic: results keep the
tensor type, units sit in both banks, and the X02 cap reads both banks."""

import numpy as np

from ckq import dual
from ckq.free_algebra import TensorElement
from ckq.pimenov import ParameterSignature, PimenovElement


def test_tensor_squares_keep_their_type_and_read_both_banks():
    pim = PimenovElement(2, {0: 2.0, 0b01: 0.5})
    t = TensorElement(2, 3, {(0b10, (0,), (1, 2)): 1.5, (0, (), (2,)): -1.0})
    for r in (t + t, t - t, -t, t * 2.0, 3j * t, t * pim, pim * t, t * t):
        assert type(r) is TensorElement
    assert (t * pim).terms == {
        (0b10, (0,), (1, 2)): 3.0,
        (0b11, (0,), (1, 2)): 0.75,
        (0, (), (2,)): -2.0,
        (0b01, (), (2,)): -0.5,
    }
    assert TensorElement.const(2, 3, pim).terms == {(0, (), ()): 2.0, (0b01, (), ()): 0.5}
    assert TensorElement.const(2, 3, 1.0).terms == {(0, (), ()): 1.0}
    assert repr(t) == "TensorElement(2 terms, deg 3)"

    alg = dual.SowAlgebra(ParameterSignature.parse("n,n"), dw=4, dx=4)
    one = alg.one().terms[(0, 0, 0)]  # the unit w-series
    s = dual.SowTensor2(alg, {
        ((0, 1, 0), (0, 3, 0)): one * 8.0,  # right bank over a cap of 2
        ((0, 3, 0), (1, 0, 0)): one * 6.0,  # left bank over a cap of 2
        ((0, 1, 0), (0, 0, 1)): one * 1.0,
    })
    for r in (s + s, s - s, s * 2.0, 2.0 * s, s * np.ones(alg.dw + 1), s * one, s * s):
        assert type(r) is dual.SowTensor2
    assert s.max_abs() == s.max_abs(x_cap=3) == 8.0
    assert s.max_abs(x_cap=2) == 1.0
    assert s.max_abs(x_cap=0) == 0.0
