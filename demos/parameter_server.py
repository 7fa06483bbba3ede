"""A round-robin parameter server is exactly a constant-delay recurrence.

With W workers taking turns, every gradient applied at step t was computed
from the iterate at step t - (W - 1).  The parameter-server emulator therefore
reproduces the constant-delay simulator bit for bit, which this demo checks
directly.  With randomly-timed workers the delays spread out, and the
measured stability threshold follows the delay distribution instead.
"""

from staleness_lab import (
    DelayModel,
    OptimizerSpec,
    QuadraticProblem,
    RoundRobin,
    SampledDelay,
    SimConfig,
    analytic_threshold_plain,
    delay_histogram,
    pmf_uniform,
    ps_empirical_threshold,
    run_ps,
    simulate_expectation,
)

WORKERS = 5
STEPS = 400


def main() -> None:
    tau = WORKERS - 1
    eta = 0.5 * analytic_threshold_plain(1.0, tau)
    problem = QuadraticProblem.diagonal([1.0])
    opt = OptimizerSpec("plain", eta, 0.0)

    run = run_ps(problem, RoundRobin(WORKERS), opt, STEPS)
    cfg = SimConfig(optimizer=opt, delay=DelayModel.constant(tau),
                    max_steps=STEPS, record_trace=True)
    ref = dict(simulate_expectation(problem, cfg).trace)
    worst = max(abs(n - ref[t]) for t, n in enumerate(run.norms) if t in ref)
    print(f"{WORKERS} round-robin workers vs constant delay {tau}:")
    print(f"  largest per-step norm difference over {STEPS} steps: {worst!r}")

    # now let worker timing be random: delays drawn fresh each step
    # (tiny eta so the run lasts long enough for clean frequencies)
    sched = SampledDelay(pmf_uniform(1, 2 * tau - 1), seed=7)
    srun = run_ps(problem, sched, OptimizerSpec("plain", 1e-3, 0.0), 20_000)
    print(f"\nsampled delays, uniform on 1..{2 * tau - 1} (mean {tau}):")
    for delay, freq in delay_histogram(srun):
        print(f"  delay {delay}: {freq:.3f} of steps")

    measured = ps_empirical_threshold(problem, RoundRobin(WORKERS), "plain",
                                      rel_tol=0.005).eta_star
    closed = analytic_threshold_plain(1.0, tau)
    print(f"\nthreshold measured from the emulator: {measured:.6f}")
    print(f"closed form at tau = {tau}:            {closed:.6f}")
    print(f"relative gap: {abs(measured - closed) / closed:.2e}")


if __name__ == "__main__":
    main()
