// mars-node runs MARS as real OS processes. One invocation is either a
// single node (the controller, or one switch-group agent) or the
// launcher that spawns and supervises a full deployment on loopback.
//
// Usage:
//
//	mars-node -role launcher [-scenario sc.json] [-dir out] [-timeout 120s] [-stream]
//	mars-node -role controller -scenario sc.json -portmap pm.json [-stream]
//	mars-node -role switch -scenario sc.json -portmap pm.json -group 2
//
// Every process derives its replay data by running the identical seeded
// simulation locally (see internal/deploy), so only two small JSON files
// cross process boundaries: the scenario and the port map. Node
// processes print "ready" on stdout once listening and block until the
// launcher writes "go" on stdin; switch agents then serve until "stop"
// (or stdin EOF). The launcher exits 0 only if the multi-process
// diagnosis reproduces the simulator's top-1 culprit, making the
// deployment a single grep-able, non-zero-on-failure CI check.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"mars/internal/deploy"
	"mars/internal/stream"
	"mars/internal/topology"
)

func main() {
	role := flag.String("role", "launcher", "process role: launcher, controller, or switch")
	scenarioPath := flag.String("scenario", "", "scenario JSON (launcher: optional, default scenario when empty)")
	portmapPath := flag.String("portmap", "", "port map JSON written by the launcher")
	group := flag.Int("group", -1, "switch role: index into the port map's groups")
	dir := flag.String("dir", "", "launcher: output directory for configs and node logs (default: temp dir)")
	timeout := flag.Duration("timeout", 120*time.Second, "launcher: watchdog for the whole run")
	withStream := flag.Bool("stream", false, "controller: also feed collected records to the streaming diagnosis service")
	flag.Parse()

	var err error
	code := 0
	switch *role {
	case "launcher":
		code, err = runLauncher(*scenarioPath, *dir, *timeout, *withStream)
	case "controller":
		code, err = runController(*scenarioPath, *portmapPath, *withStream)
	case "switch":
		err = runSwitch(*scenarioPath, *portmapPath, *group)
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mars-node: %s: %v\n", *role, err)
		os.Exit(1)
	}
	os.Exit(code)
}

// loadScenario reads the scenario file, or falls back to the default CI
// smoke scenario when no path is given.
func loadScenario(path string) (deploy.Scenario, error) {
	if path == "" {
		return deploy.DefaultScenario(), nil
	}
	return deploy.ReadScenario(path)
}

// ready prints the readiness handshake and blocks until the launcher
// starts the run. Returns the stdin scanner so switch agents can keep
// waiting for "stop".
func ready(stdin io.Reader) (*bufio.Scanner, error) {
	fmt.Println("ready")
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "go" {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("stdin closed before \"go\"")
}

// exitMismatch is the controller's exit code when the deployment's top-1
// culprit disagrees with the simulator's (distinct from 1 = hard error).
const exitMismatch = 3

// runController is the controller process: build the capture, bind the
// port map's controller socket, run the unmodified control plane over it
// until the run settles, and judge the outcome against the simulator's.
func runController(scenarioPath, portmapPath string, withStream bool) (int, error) {
	if portmapPath == "" {
		return 0, fmt.Errorf("-portmap is required")
	}
	sc, err := loadScenario(scenarioPath)
	if err != nil {
		return 0, err
	}
	cap, err := deploy.Build(sc)
	if err != nil {
		return 0, err
	}
	pm, err := deploy.ReadPortMap(portmapPath)
	if err != nil {
		return 0, err
	}
	swAddrs, err := pm.SwitchAddrs()
	if err != nil {
		return 0, err
	}
	addr, err := pm.ControllerAddr()
	if err != nil {
		return 0, err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return 0, fmt.Errorf("binding %s: %w", pm.Controller, err)
	}
	ctrl := deploy.NewControllerNode(cap, conn, swAddrs)
	defer ctrl.Stop()
	if withStream {
		ctrl.Stream = stream.New(stream.DefaultConfig(sc.Seed), cap.Sys.FT.PodPartition(), cap.Sys.Paths)
	}

	if _, err := ready(os.Stdin); err != nil {
		return 0, err
	}
	start := time.Now() //mars:wallclock deployment live phase
	ctrl.Start()
	settled := "bound"
	if deploy.WaitSettled(ctrl) {
		settled = "quiet"
	}
	res := ctrl.Result(time.Since(start).Seconds()) //mars:wallclock deployment live phase
	fmt.Printf("mars-node: controller diagnoses=%d settled=%s collect_mean_ms=%.2f collect_p95_ms=%.2f diag_rate=%.2f/s retries=%d frames_rx=%d\n",
		res.Diagnoses, settled, res.MeanCollectMs(), res.P95CollectMs(), res.DiagnosesPerSec(),
		res.Bytes.Retries, ctrl.Stats().FramesReceived.Load())
	if withStream {
		windows, merged := ctrl.FinishStream()
		fmt.Printf("mars-node: stream windows=%d merged_culprits=%d\n", windows, merged)
	}
	fmt.Printf("mars-node: %s\n", res.Verdict())
	if !res.Top1Match {
		return exitMismatch, nil
	}
	return 0, nil
}

// runSwitch is one switch-group agent: replay the group's captured
// notifications and answer collect/refresh/push requests until the
// launcher says stop.
func runSwitch(scenarioPath, portmapPath string, group int) error {
	if portmapPath == "" {
		return fmt.Errorf("-portmap is required")
	}
	sc, err := loadScenario(scenarioPath)
	if err != nil {
		return err
	}
	cap, err := deploy.Build(sc)
	if err != nil {
		return err
	}
	pm, err := deploy.ReadPortMap(portmapPath)
	if err != nil {
		return err
	}
	if group < 0 || group >= len(pm.Groups) {
		return fmt.Errorf("-group %d out of range (portmap has %d groups)", group, len(pm.Groups))
	}
	ctrlAddr, err := pm.ControllerAddr()
	if err != nil {
		return err
	}
	addr, err := net.ResolveUDPAddr("udp", pm.Groups[group].Addr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return fmt.Errorf("binding %s: %w", pm.Groups[group].Addr, err)
	}
	node := deploy.NewSwitchNode(cap, pm.Groups[group].Switches, conn, ctrlAddr)
	defer node.Stop()

	stdin, err := ready(os.Stdin)
	if err != nil {
		return err
	}
	node.Start()
	// Serve until the launcher's "stop" (or its death: stdin EOF). The
	// controller decides when the run is over; an agent never does.
	for stdin.Scan() {
		if strings.TrimSpace(stdin.Text()) == "stop" {
			break
		}
	}
	notes, pushes, b := node.Counts()
	fmt.Printf("mars-node: switch group=%d notes=%d pushes=%d frames_rx=%d notification_bytes=%d collection_bytes=%d refresh_bytes=%d ack_bytes=%d\n",
		group, notes, pushes, node.Stats().FramesReceived.Load(),
		b.NotificationBytes, b.CollectionBytes, b.RefreshBytes, b.AckBytes)
	return nil
}

// child is one spawned node process under the launcher.
type child struct {
	name  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	ready chan struct{}
	done  chan error
}

// runLauncher spawns the controller and every switch-group agent as
// separate OS processes on loopback, supervises the handshake and the
// run, and reduces the outcome to an exit code.
func runLauncher(scenarioPath, dir string, timeout time.Duration, withStream bool) (int, error) {
	sc, err := loadScenario(scenarioPath)
	if err != nil {
		return 0, err
	}
	if dir == "" {
		dir, err = os.MkdirTemp("", "mars-node-*")
		if err != nil {
			return 0, err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}

	// Bind every socket here to discover free ports, then release them
	// for the children to re-bind. The window between close and re-bind
	// is a real (tiny, loopback-only) race; binding up front keeps the
	// port map honest without passing file descriptors around.
	ft, err := topology.NewFatTree(sc.K)
	if err != nil {
		return 0, err
	}
	groups := deploy.GroupSwitches(ft, sc.Groups)
	conns, pm, err := deploy.AllocatePorts(groups)
	if err != nil {
		return 0, err
	}
	for _, c := range conns {
		c.Close()
	}
	scPath := filepath.Join(dir, "scenario.json")
	pmPath := filepath.Join(dir, "portmap.json")
	if err := sc.WriteFile(scPath); err != nil {
		return 0, err
	}
	if err := pm.WriteFile(pmPath); err != nil {
		return 0, err
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	fmt.Printf("mars-node: launcher dir=%s controller=%s groups=%d\n", dir, pm.Controller, len(pm.Groups))

	spawn := func(name string, args ...string) (*child, error) {
		cmd := exec.Command(self, args...)
		logf, err := os.Create(filepath.Join(dir, name+".log"))
		if err != nil {
			return nil, err
		}
		cmd.Stderr = logf
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		c := &child{name: name, cmd: cmd, stdin: stdin,
			ready: make(chan struct{}), done: make(chan error, 1)}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("spawning %s: %w", name, err)
		}
		// Relay the child's stdout, watching for the readiness handshake.
		// Wait closes the pipe, so it runs only after the relay reads EOF.
		relayed := make(chan struct{})
		//mars:sync per-child relay writes whole lines prefixed with the child's name; cross-child interleaving mirrors real process timing, which is the launcher's observable, not a seeded output
		go func() {
			defer close(relayed)
			sc := bufio.NewScanner(stdout)
			signaled := false
			for sc.Scan() {
				line := sc.Text()
				if !signaled && strings.TrimSpace(line) == "ready" {
					signaled = true
					close(c.ready)
					continue
				}
				fmt.Printf("[%s] %s\n", name, line)
			}
		}()
		//mars:sync one waiter per child feeding a buffered done channel; consumers select on it explicitly, so ordering is enforced at the receive sites
		go func() { <-relayed; c.done <- cmd.Wait(); logf.Close() }()
		return c, nil
	}

	var children []*child
	killAll := func() {
		for _, c := range children {
			c.cmd.Process.Kill()
		}
	}
	ctrlArgs := []string{"-role", "controller", "-scenario", scPath, "-portmap", pmPath}
	if withStream {
		ctrlArgs = append(ctrlArgs, "-stream")
	}
	ctrl, err := spawn("controller", ctrlArgs...)
	if err != nil {
		return 0, err
	}
	children = append(children, ctrl)
	var agents []*child
	for g := range pm.Groups {
		a, err := spawn(fmt.Sprintf("switch-%d", g),
			"-role", "switch", "-scenario", scPath, "-portmap", pmPath, "-group", fmt.Sprint(g))
		if err != nil {
			killAll()
			return 0, err
		}
		children = append(children, a)
		agents = append(agents, a)
	}

	watchdog := time.After(timeout) //mars:wallclock launcher watchdog
	for _, c := range children {
		select {
		case <-c.ready:
		case err := <-c.done:
			killAll()
			return 0, fmt.Errorf("%s exited before ready: %v", c.name, err)
		case <-watchdog:
			killAll()
			return 0, fmt.Errorf("timeout waiting for %s to become ready", c.name)
		}
	}
	for _, c := range children {
		if _, err := io.WriteString(c.stdin, "go\n"); err != nil {
			killAll()
			return 0, fmt.Errorf("starting %s: %w", c.name, err)
		}
	}

	// The controller owns the run's end; the watchdog owns the controller.
	var ctrlErr error
	select {
	case ctrlErr = <-ctrl.done:
	case <-watchdog:
		killAll()
		return 0, fmt.Errorf("watchdog: run exceeded %s", timeout)
	}
	for _, a := range agents {
		io.WriteString(a.stdin, "stop\n")
	}
	for _, a := range agents {
		select {
		case <-a.done:
		case <-time.After(10 * time.Second): //mars:wallclock agent shutdown grace
			a.cmd.Process.Kill()
			<-a.done
		}
	}

	code := 0
	if ctrlErr != nil {
		if ee, ok := ctrlErr.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else {
			return 0, fmt.Errorf("controller: %v", ctrlErr)
		}
	}
	fmt.Printf("mars-node: launcher verdict match=%v logs=%s\n", code == 0, dir)
	return code, nil
}
