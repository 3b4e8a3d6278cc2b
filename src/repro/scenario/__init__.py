"""Declarative multi-emitter scenario library (see :mod:`.scenario`)."""

from repro.scenario.emitters import (
    ADJACENT_EXCESS_DB,
    NON_ADJACENT_EXCESS_DB,
    POWER_CONVENTIONS,
    BluetoothFhEmitter,
    MicrowaveOvenEmitter,
    WlanEmitter,
    active_power_watts,
    reference_power_watts,
    scale_to_excess,
)
from repro.scenario.scenario import (
    EMITTER_TYPES,
    PRESETS,
    Scenario,
    preset_names,
)

__all__ = [
    "ADJACENT_EXCESS_DB",
    "BluetoothFhEmitter",
    "EMITTER_TYPES",
    "MicrowaveOvenEmitter",
    "NON_ADJACENT_EXCESS_DB",
    "POWER_CONVENTIONS",
    "PRESETS",
    "Scenario",
    "WlanEmitter",
    "active_power_watts",
    "preset_names",
    "reference_power_watts",
    "scale_to_excess",
]
