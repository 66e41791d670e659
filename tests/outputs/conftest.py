def pytest_addoption(parser):
    parser.addoption("--record", action="store_true",
                     help="rewrite tests/outputs/OUTPUTS.json from this "
                          "checkout instead of comparing with it")
