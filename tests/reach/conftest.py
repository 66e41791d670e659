def pytest_addoption(parser):
    parser.addoption("--record", action="store_true",
                     help="rewrite tests/reach/OUTPUTS.json from this "
                          "checkout's run instead of comparing with it")
