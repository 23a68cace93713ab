"""Cut-cat state syndrome extraction: simulation, decoding, verification."""

import numpy as _np


def _check_numpy(version: str) -> None:
    """Raise ``ImportError`` unless ``version`` is numpy 2 or later, the
    first with ``np.bitwise_count``, which masks are counted with."""
    if int(version.split(".")[0]) < 2:
        raise ImportError(
            f"cutcat needs numpy >= 2 for np.bitwise_count; found numpy {version}")


_check_numpy(_np.__version__)

from .pauli import (
    CodeFormatError,
    CssCode,
    parse_css_code,
    residual_weight_mod_generator,
    serialize_css_code,
    steane_code,
)
from .circuit import (
    GadgetCircuit,
    Gate,
    circuit_depth,
)
from .gadgets import (
    GadgetSpec,
    ResourceReport,
    build_cut_cat,
    build_full_cat,
    resource_report,
)
from .decoders import (
    CodeLUT,
    CutCatLUT,
    IdentityDecoder,
    LutBuildError,
    LutDecoder,
    RuleDecoderD3D5,
    RuleDecoderD7,
    build_code_lut,
    build_cut_cat_lut,
    j_list,
)
from .verify import (
    VerificationReport,
    eval_upper_bound,
    verify_gadget,
)
from .experiments import (
    SweepResult,
    TrialStats,
    fit_slope,
    run_gadget_mc,
    run_mc,
    sweep_mc,
    wilson_interval,
)
from .block import BlockSimulator, run_block_mc

__version__ = "0.1.0"
