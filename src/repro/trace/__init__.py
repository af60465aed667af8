"""Trace collection: the Tstat-like edge monitor and its flow-log format.

The paper's datasets are "flow-level logs where each line reports a set of
statistics related to each YouTube video flow. Among other metrics, the
source and destination IP addresses, the total number of bytes, the starting
and ending time and both the VideoID and the resolution of the video
requested are available" (Section III-B).  This package reproduces that
schema and the passive monitor that fills it.
"""
