"""Byte-level pins for the verification reports.

The sha256 of every suite's JSON report at the master seed (reduced
sizes) was recorded before the contraction stack kept one live out-list
per supervertex; a refactor that changes any report byte shows here.
"""

import hashlib

import pytest

from cleb.verify import DEFAULT_SEED, run_suite

REPORT_SHA256 = {
    "oracle-equivalence": "495a57e195b8f78bece0ea8bb648e4d971f95e2588ceb4ead357f61da96b471b",
    "color-invariance": "d7719abb82ac6872de1171d4eb1874304ddcbda62bacc00cdf12ceb7fec9aa6c",
    "invasion": "dce3eaa858aa7f0497191a448d609fbb1c0616ff81ff1a4e7e86b015e9090dff",
    "sandwich": "28e88dacc8bcaa85f7a1776ea85173aecd4408dac19ce38622b0c7b6a3ac44b1",
    "escape": "c33dd4f174a1d4aaed902d99dcf588fb16054a5fbd6c4828cfab0995e1b98b14",
    "monotonicity": "69f726c5d3a80443781b69f153257cd71a2840f6e1994fe2d5d11e4cd267cfb9",
    "perturbation": "aea35d5fbc870f9fa24debc26021982c829dd63bebb29ab33ee00088466cac3b",
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_fast_json_report_is_pinned(name):
    text = run_suite(name, DEFAULT_SEED, fast=True).report_text("json")
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]
