package main

import (
	"publishing/internal/frame"
	"publishing/internal/queuing"
	"publishing/internal/simtime"
)

// predict is the Fig 5.5-style utilization forecast of internal/queuing for
// a workload's offered load, in the thesis protocol's terms: every
// guaranteed send is one data frame and one acknowledgement frame on the
// LAN, one publish at the recorder, and one send plus one receive of kernel
// CPU. Coalescing, piggybacked acks, watchdog traffic and kernel calls the
// model leaves out are where the measured figures depart from it.
func predict(p *plan) (lanUtil, kernelUtil, publishUtil float64) {
	cfg := p.config()
	rate := float64(p.sends) / p.horizon.Seconds()
	data := (&frame.Frame{Type: frame.Guaranteed, Body: make([]byte, bodyBytes)}).WireLen()
	ack := (&frame.Frame{Type: frame.Ack}).WireLen()

	net := queuing.New(p.seed)
	wire := net.NewServer("lan", 1, func(j *queuing.Job) simtime.Time { return cfg.LAN.FrameTime(j.Bytes) }, nil)
	costs := cfg.Costs
	kernel := net.NewServer("kernel", p.spec.Nodes, func(j *queuing.Job) simtime.Time {
		if j.Class == "send" {
			return costs.SendCPU + costs.NetSendCPU
		}
		return costs.ReceiveCPU + costs.NetRecvCPU
	}, nil)
	publish := net.NewServer("recorder", 1, func(*queuing.Job) simtime.Time { return cfg.RecorderMode.PerMessageCPU() }, nil)
	net.NewSource("data", "data", data, rate, wire).Start()
	net.NewSource("ack", "ack", ack, rate, wire).Start()
	net.NewSource("send", "send", 0, rate, kernel).Start()
	net.NewSource("receive", "receive", 0, rate, kernel).Start()
	net.NewSource("publish", "publish", 0, rate, publish).Start()
	net.Run(2 * simtime.Second)
	net.StartMeasuring()
	net.Run(net.Sched.Now() + 20*simtime.Second)
	return wire.Utilization(), kernel.Utilization(), publish.Utilization()
}
