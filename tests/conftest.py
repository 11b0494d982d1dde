from utmqp.profiles import DataProfile

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def combine_profiles(ca: float, pa: DataProfile, cb: float, pb: DataProfile) -> DataProfile:
    """Linear combination ca*pa + cb*pb (for superposition tests)."""

    def maybe(fa, fb, combine):
        if fa is None or fb is None:
            return None
        return combine

    transform = maybe(
        pa.transform,
        pb.transform,
        lambda lam: ca * pa.transform(lam) + cb * pb.transform(lam),
    )
    grouped = maybe(
        pa.grouped_time_transform,
        pb.grouped_time_transform,
        lambda w, t: ca * pa.grouped_time_transform(w, t)
        + cb * pb.grouped_time_transform(w, t),
    )
    return DataProfile(
        name=f"combo({pa.name},{pb.name})",
        evaluator=lambda x: ca * pa(x) + cb * pb(x),
        derivative_evaluator=lambda k, x: ca * pa.derivative(k, x)
        + cb * pb.derivative(k, x),
        transform=transform,
        grouped_time_transform=grouped,
        params={},
    )
