"""Attack framework: spoofed floods, reflection, guessing, zombies, baselines."""

from .amplification import ReflectionAttacker, VictimMeter
from .hcf import HopCountFilter, infer_hop_count
from .spoof import BATCH_INTERVAL, SpoofingAttacker, random_source
from .zombie import ZombieFlood

__all__ = [
    "BATCH_INTERVAL",
    "HopCountFilter",
    "ReflectionAttacker",
    "SpoofingAttacker",
    "VictimMeter",
    "ZombieFlood",
    "infer_hop_count",
    "random_source",
]
