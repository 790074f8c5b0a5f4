"""Operator coding examples from the tutorial's Resources section:
HyperLogLog sketch acceleration (FPL'20), Scotch-style line-rate
sketches (VLDB'20), BiS-KM any-precision k-means (FPGA'20), and the
SAP-HANA compression codecs (VLDB'22).
"""

from .anyprec_kmeans import (
    AnyPrecisionResult,
    anyprec_kmeans,
    quantize,
    scan_speedup,
)
from .compression import (
    DictEncoded,
    RleEncoded,
    codec_kernel_spec,
    cpu_codec_time_s,
    dict_decode,
    dict_encode,
    rle_decode,
    rle_encode,
)
from .hll import HyperLogLog, cpu_insert_time_s, hll_kernel_spec
from .rules import RuleSet, cpu_match_time_s, random_rules, rules_kernel_spec
from .sketches import CountMinSketch, cpu_update_time_s, sketch_kernel_spec

__all__ = [
    "AnyPrecisionResult",
    "CountMinSketch",
    "DictEncoded",
    "HyperLogLog",
    "RleEncoded",
    "RuleSet",
    "anyprec_kmeans",
    "codec_kernel_spec",
    "cpu_codec_time_s",
    "cpu_insert_time_s",
    "cpu_match_time_s",
    "cpu_update_time_s",
    "dict_decode",
    "dict_encode",
    "hll_kernel_spec",
    "quantize",
    "random_rules",
    "rle_decode",
    "rle_encode",
    "rules_kernel_spec",
    "scan_speedup",
    "sketch_kernel_spec",
]
