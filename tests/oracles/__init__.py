"""Parity oracles: slow, simple reference implementations the tests compare against."""
