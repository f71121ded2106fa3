package deploy

import (
	"fmt"
	"net"

	"mars/internal/topology"
)

// PortMap is the shared discovery config of one deployment run: where the
// controller listens and which process hosts which switches. The launcher
// writes it as JSON; every node process reads it back.
type PortMap struct {
	// Controller is the controller process's UDP address.
	Controller string `json:"controller"`
	// Groups lists the switch processes in group-index order.
	Groups []PortGroup `json:"groups"`
}

// PortGroup is one switch process: its address and hosted switch IDs.
type PortGroup struct {
	Addr     string            `json:"addr"`
	Switches []topology.NodeID `json:"switches"`
}

// WriteFile serializes the port map as JSON.
func (p *PortMap) WriteFile(path string) error { return writeJSON(path, "portmap", p) }

// ReadPortMap loads a portmap JSON file.
func ReadPortMap(path string) (*PortMap, error) {
	var p PortMap
	if err := readJSON(path, "portmap", &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// ControllerAddr resolves the controller endpoint.
func (p *PortMap) ControllerAddr() (*net.UDPAddr, error) {
	return net.ResolveUDPAddr("udp", p.Controller)
}

// SwitchAddrs resolves the switch-ID → process-address routing table the
// controller's transport sends through.
func (p *PortMap) SwitchAddrs() (map[topology.NodeID]*net.UDPAddr, error) {
	out := make(map[topology.NodeID]*net.UDPAddr)
	for _, g := range p.Groups {
		addr, err := net.ResolveUDPAddr("udp", g.Addr)
		if err != nil {
			return nil, fmt.Errorf("deploy: resolving group addr %s: %w", g.Addr, err)
		}
		for _, sw := range g.Switches {
			out[sw] = addr
		}
	}
	return out, nil
}

// AllocatePorts binds one loopback UDP socket per role (controller +
// len(groups) switch processes), returning the sockets and the resulting
// port map. The launcher binds everything itself and passes the listening
// sockets' addresses down, so no port is guessed and no race with other
// processes exists; node processes re-bind the address they are assigned.
func AllocatePorts(groups [][]topology.NodeID) ([]*net.UDPConn, *PortMap, error) {
	conns := make([]*net.UDPConn, 0, len(groups)+1)
	bind := func() (*net.UDPConn, error) {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			for _, open := range conns {
				open.Close()
			}
			return nil, fmt.Errorf("deploy: binding loopback: %w", err)
		}
		conns = append(conns, c)
		return c, nil
	}
	ctrlConn, err := bind()
	if err != nil {
		return nil, nil, err
	}
	pm := &PortMap{Controller: ctrlConn.LocalAddr().String()}
	for _, sws := range groups {
		c, err := bind()
		if err != nil {
			return nil, nil, err
		}
		pm.Groups = append(pm.Groups, PortGroup{
			Addr:     c.LocalAddr().String(),
			Switches: sws,
		})
	}
	return conns, pm, nil
}
