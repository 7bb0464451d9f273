from setuptools import find_packages, setup

setup(
    name="repro-khamis-ns16",
    version="0.7.0",
    description=(
        "Reproduction of Khamis-Ngo-Suciu (PODS'16): output-size bounds "
        "and worst-case-optimal join algorithms over FD lattices"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            # Drive the demo multi-tenant service and print a JSON report
            # (latency percentiles, QPS, rejection/degradation rates).
            "repro-serve=repro.serve.cli:main",
            # The AST invariant checker: six codebase-contract rules,
            # the committed zero-findings baseline, and the knob-matrix
            # docs drift gate (see PERFORMANCE.md §8).
            "repro-lint=repro.analysis.cli:main",
        ],
    },
    install_requires=[
        "numpy",
    ],
    extras_require={
        # The LP layer runs on the built-in exact rational backend; scipy
        # (HiGHS) is an optional accelerator for large programs and the
        # cross-check target of REPRO_LP_BACKEND=both.  Tier-1 tests pass
        # without it (see tests/test_lp_exact.py::test_importability_split).
        "scipy": ["scipy>=1.9"],
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
