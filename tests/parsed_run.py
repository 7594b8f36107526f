"""Run a task handler as a scenario runs it: on the parameters its record in
the task table parses from a JSON task object."""

from fockbench.cli import TASKS


def run_parsed(ctx, name, params):
    """The handler of task ``name`` on ``params`` parsed against ``ctx.n``."""
    task = TASKS[name]
    return task.handler(ctx, **task.parse(params, ctx.n))
