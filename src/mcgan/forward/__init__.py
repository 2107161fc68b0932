"""Physics forward maps and observation machinery."""

from .darcy import DarcyField, DarcyGrid, solve_darcy
from .observe import (
    ObservationOp,
    darcy_sensor_op,
    darcy_state_vector,
    darcy_synth_observations,
    observe,
    pipe_sensor_op,
    pipe_state_vector,
    pipe_synth_observations,
)
from .pipe import PipeConfig, PipeState, haaland_friction, solve_pipe, solve_pipe_batch

__all__ = [
    "DarcyField",
    "DarcyGrid",
    "ObservationOp",
    "PipeConfig",
    "PipeState",
    "darcy_sensor_op",
    "darcy_state_vector",
    "darcy_synth_observations",
    "haaland_friction",
    "observe",
    "pipe_sensor_op",
    "pipe_state_vector",
    "pipe_synth_observations",
    "solve_darcy",
    "solve_pipe",
    "solve_pipe_batch",
]
