"""Job launcher (srun substitute): options, assignment, orchestration."""

from repro.launch.job import AppFactory, JobStep, RankContext, launch_job
from repro.launch.options import SrunOptions
from repro.launch.sharded import (
    ShardedJobStep,
    ShardPlan,
    launch_sharded,
    plan_shards,
)
from repro.launch.slurm import TaskAssignment, assign_tasks

__all__ = [
    "SrunOptions",
    "TaskAssignment",
    "assign_tasks",
    "RankContext",
    "JobStep",
    "AppFactory",
    "launch_job",
    "ShardPlan",
    "ShardedJobStep",
    "plan_shards",
    "launch_sharded",
]
