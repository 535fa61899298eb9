"""Setuptools entry point.

Kept minimal so the package can be installed in environments without the
``wheel`` package (legacy editable installs).  ``native.c`` ships as
package data: :mod:`repro.runtime.native` compiles it on first use.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.runtime": ["native.c"]},
)
