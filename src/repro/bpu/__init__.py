"""Baseline branch-prediction substrate: structures, predictors, protections."""

from repro.bpu.common import (
    AccessResult,
    BranchPredictorModel,
    Prediction,
    PredictorStats,
    StructureSizes,
    fold_bits,
)
from repro.bpu.mapping import (
    BASELINE_ADDRESS_BITS,
    BTBLookupKey,
    BaselineMappingProvider,
    FullAddressMappingProvider,
    IdentityTargetCodec,
    MappingProvider,
    TargetCodec,
)
from repro.bpu.history import BranchHistoryBuffer, FoldedHistory, GlobalHistoryRegister, HistoryState
from repro.bpu.btb import BranchTargetBuffer, BTBLookupResult, BTBUpdateResult
from repro.bpu.pht import (
    DirectionPrediction,
    PatternHistoryTable,
    SaturatingCounter,
    SKLConditionalPredictor,
)
from repro.bpu.rsb import ReturnStackBuffer, RSBPopResult
from repro.bpu.tage import TAGE_SC_L_8KB, TAGE_SC_L_64KB, TAGEConfig, TAGEPredictor
from repro.bpu.perceptron import DEFAULT_PERCEPTRON, PerceptronConfig, PerceptronPredictor
from repro.bpu.composite import CompositeBPU, make_skl_composite
from repro.bpu.protections import (
    ConservativeBPU,
    FlushingProtectedBPU,
    make_conservative,
    make_ucode_protection_1,
    make_ucode_protection_2,
    make_unprotected_baseline,
)

__all__ = [
    "AccessResult",
    "BranchPredictorModel",
    "Prediction",
    "PredictorStats",
    "StructureSizes",
    "fold_bits",
    "BASELINE_ADDRESS_BITS",
    "BTBLookupKey",
    "BaselineMappingProvider",
    "FullAddressMappingProvider",
    "IdentityTargetCodec",
    "MappingProvider",
    "TargetCodec",
    "BranchHistoryBuffer",
    "FoldedHistory",
    "GlobalHistoryRegister",
    "HistoryState",
    "BranchTargetBuffer",
    "BTBLookupResult",
    "BTBUpdateResult",
    "DirectionPrediction",
    "PatternHistoryTable",
    "SaturatingCounter",
    "SKLConditionalPredictor",
    "ReturnStackBuffer",
    "RSBPopResult",
    "TAGE_SC_L_8KB",
    "TAGE_SC_L_64KB",
    "TAGEConfig",
    "TAGEPredictor",
    "DEFAULT_PERCEPTRON",
    "PerceptronConfig",
    "PerceptronPredictor",
    "CompositeBPU",
    "make_skl_composite",
    "ConservativeBPU",
    "FlushingProtectedBPU",
    "make_conservative",
    "make_ucode_protection_1",
    "make_ucode_protection_2",
    "make_unprotected_baseline",
]
