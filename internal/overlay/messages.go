// Package overlay implements the JXTA-Overlay platform from the paper's §3:
// Brokers act as governors of the P2P network (registration directory,
// statistics aggregation, peer-selection service), Clients are edge peers
// (our SimpleClient — no GUI), and the Primitives — peer discovery, peer
// selection, resource allocation, file sharing and transmission, instant
// communication, task management, resource statistics — are the methods the
// two expose.
package overlay

import (
	"fmt"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/task"
	"peerlab/internal/wire"
)

// Service names bound per node.
const (
	ServiceBroker   = "broker"
	ServiceClient   = "client"
	ServiceTransfer = "xfer"
)

// Message type tags.
const (
	mtRegister       byte = 1
	mtRegisterAck    byte = 2
	mtStatsReport    byte = 3
	mtAck            byte = 4
	mtDiscover       byte = 5
	mtDiscoverResult byte = 6
	mtSelect         byte = 7
	mtSelectResult   byte = 8
	mtReportTransfer byte = 9
	mtReportTask     byte = 10
	mtReportMessage  byte = 11
	mtTaskSubmit     byte = 12
	mtTaskDecision   byte = 13
	mtTaskDone       byte = 14
	mtInstant        byte = 15
	mtInstantAck     byte = 16
	mtPieceReport    byte = 17
	mtRegisterBatch  byte = 18
)

// register announces a client to its broker.
type register struct {
	Adv jxta.Advertisement
}

func (m register) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtRegister)
	m.Adv.Encode(e)
	return e.Detach()
}

// registerAck confirms registration.
type registerAck struct {
	OK         bool
	Broker     string
	KnownPeers int
}

func (m registerAck) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtRegisterAck)
	e.Bool(m.OK)
	e.String(m.Broker)
	e.Int(m.KnownPeers)
	return e.Detach()
}

// statsReport carries a client's self-reported load.
type statsReport struct {
	Peer      string
	InboxLen  int
	OutboxLen int
	QueueLen  int
	ReadyIn   time.Duration
	CPUScore  float64
}

func (m statsReport) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtStatsReport)
	e.String(m.Peer)
	e.Int(m.InboxLen)
	e.Int(m.OutboxLen)
	e.Int(m.QueueLen)
	e.Duration(m.ReadyIn)
	e.Float64(m.CPUScore)
	return e.Detach()
}

// registerBatch is the batched boot frame: registration and the client's
// initial load report in one exchange, acknowledged by a registerAck. It
// collapses the legacy register + statsReport pair to one control RPC per
// boot; because that halves the control-plane event count it is opt-in
// (ClientConfig.BatchBoot) and stays off on golden paths.
type registerBatch struct {
	Adv   jxta.Advertisement
	Stats statsReport
}

func (m registerBatch) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtRegisterBatch)
	m.Adv.Encode(e)
	e.String(m.Stats.Peer)
	e.Int(m.Stats.InboxLen)
	e.Int(m.Stats.OutboxLen)
	e.Int(m.Stats.QueueLen)
	e.Duration(m.Stats.ReadyIn)
	e.Float64(m.Stats.CPUScore)
	return e.Detach()
}

// discover queries the broker's advertisement directory.
type discover struct {
	Kind jxta.AdvKind
	Name string
}

func (m discover) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtDiscover)
	e.Byte(byte(m.Kind))
	e.String(m.Name)
	return e.Detach()
}

// discoverResult returns matching advertisements.
type discoverResult struct {
	Advs []jxta.Advertisement
}

func (m discoverResult) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	m.encodeTo(e)
	return e.Detach()
}

func (m discoverResult) encodeTo(e *wire.Encoder) {
	e.Byte(mtDiscoverResult)
	e.Uint64(uint64(len(m.Advs)))
	for _, a := range m.Advs {
		a.Encode(e)
	}
}

// selectReq asks the broker's selection service to rank peers.
type selectReq struct {
	Model      string
	Kind       byte // core.RequestKind
	SizeBytes  int
	WorkUnits  float64
	MaxResults int
	// Preferred carries the user's ranking for the user-preference model.
	Preferred []string
	// Exclude removes peers from candidacy (e.g. the requester itself).
	Exclude []string
}

func (m selectReq) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtSelect)
	e.String(m.Model)
	e.Byte(m.Kind)
	e.Int(m.SizeBytes)
	e.Float64(m.WorkUnits)
	e.Int(m.MaxResults)
	e.StringSlice(m.Preferred)
	e.StringSlice(m.Exclude)
	return e.Detach()
}

// selectResult returns ranked peer names and their transfer addresses.
type selectResult struct {
	Peers []string
	Addrs []string
	Err   string
}

func (m selectResult) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtSelectResult)
	e.StringSlice(m.Peers)
	e.StringSlice(m.Addrs)
	e.String(m.Err)
	return e.Detach()
}

// reportTransfer carries a sender's observations of one transfer. Peer is
// the sink the observations describe; the broker attributes the originating
// peer from the reporting conn's remote address (no field on the wire), so a
// multi-source workload's flows attribute to their true source instead of
// all appearing to come from the control node.
type reportTransfer struct {
	Peer          string
	OK            bool
	Cancelled     bool
	Bytes         int
	Duration      time.Duration
	PetitionDelay time.Duration
}

func (m reportTransfer) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtReportTransfer)
	e.String(m.Peer)
	e.Bool(m.OK)
	e.Bool(m.Cancelled)
	e.Int(m.Bytes)
	e.Duration(m.Duration)
	e.Duration(m.PetitionDelay)
	return e.Detach()
}

// pieceReport publishes a peer's piece inventory and choke state into its
// broker advertisement (a new message kind: registration and stats frames
// keep their exact bytes, so pre-dissemination timing is untouched). Have
// lists held piece indices; Unchoked lists the hostnames currently granted
// upload service under the reporter's choking policy.
type pieceReport struct {
	Peer     string
	Have     []int
	Unchoked []string
}

func (m pieceReport) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtPieceReport)
	e.String(m.Peer)
	e.Int(len(m.Have))
	for _, p := range m.Have {
		e.Int(p)
	}
	e.StringSlice(m.Unchoked)
	return e.Detach()
}

// reportTask carries a submitter's observations of one task offer.
type reportTask struct {
	Peer           string
	Accepted       bool
	OK             bool
	SecondsPerUnit float64
}

func (m reportTask) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtReportTask)
	e.String(m.Peer)
	e.Bool(m.Accepted)
	e.Bool(m.OK)
	e.Float64(m.SecondsPerUnit)
	return e.Detach()
}

// reportMessage records an instant-message outcome.
type reportMessage struct {
	Peer string
	OK   bool
}

func (m reportMessage) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtReportMessage)
	e.String(m.Peer)
	e.Bool(m.OK)
	return e.Detach()
}

// taskSubmit offers a task to a peer's executor.
type taskSubmit struct {
	Task task.Task
	From string
}

func (m taskSubmit) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtTaskSubmit)
	e.Uint64(m.Task.ID)
	e.String(m.Task.Name)
	e.Float64(m.Task.WorkUnits)
	e.Int(m.Task.InputSize)
	e.String(m.From)
	return e.Detach()
}

// taskDecision reports acceptance or rejection of a submitted task.
type taskDecision struct {
	TaskID   uint64
	Accepted bool
	Reason   string
}

func (m taskDecision) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtTaskDecision)
	e.Uint64(m.TaskID)
	e.Bool(m.Accepted)
	e.String(m.Reason)
	return e.Detach()
}

// taskDone returns the execution result.
type taskDone struct {
	Result task.Result
}

func (m taskDone) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtTaskDone)
	e.Uint64(m.Result.TaskID)
	e.Bool(m.Result.OK)
	e.String(m.Result.Detail)
	e.Duration(m.Result.Elapsed)
	e.String(m.Result.Peer)
	return e.Detach()
}

// instant is a one-line instant message between peers.
type instant struct {
	From string
	Text string
}

func (m instant) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(mtInstant)
	e.String(m.From)
	e.String(m.Text)
	return e.Detach()
}

// ackBytes is the generic acknowledgment payload.
func ackBytes() []byte { return []byte{mtAck} }

// instantAckBytes acknowledges an instant message.
func instantAckBytes() []byte { return []byte{mtInstantAck} }

// --- decoding ---

func decodeRegister(d *wire.Decoder) (register, error) {
	adv, err := jxta.DecodeAdvertisement(d)
	if err != nil {
		return register{}, err
	}
	return register{Adv: adv}, d.Finish()
}

func decodeRegisterAck(d *wire.Decoder) (registerAck, error) {
	m := registerAck{OK: d.Bool(), Broker: d.StringField(), KnownPeers: d.Int()}
	return m, d.Finish()
}

func decodeStatsReport(d *wire.Decoder) (statsReport, error) {
	m := statsReport{
		Peer:      d.StringField(),
		InboxLen:  d.Int(),
		OutboxLen: d.Int(),
		QueueLen:  d.Int(),
		ReadyIn:   d.Duration(),
		CPUScore:  d.Float64(),
	}
	return m, d.Finish()
}

func decodeRegisterBatch(d *wire.Decoder) (registerBatch, error) {
	adv, err := jxta.DecodeAdvertisement(d)
	if err != nil {
		return registerBatch{}, err
	}
	m := registerBatch{
		Adv: adv,
		Stats: statsReport{
			Peer:      d.StringField(),
			InboxLen:  d.Int(),
			OutboxLen: d.Int(),
			QueueLen:  d.Int(),
			ReadyIn:   d.Duration(),
			CPUScore:  d.Float64(),
		},
	}
	return m, d.Finish()
}

func decodeDiscover(d *wire.Decoder) (discover, error) {
	m := discover{Kind: jxta.AdvKind(d.Byte()), Name: d.StringField()}
	return m, d.Finish()
}

// decodeDiscoverResult decodes a directory reply against prev, the
// previous reply's directory (nil for none): see jxta.DirDecoder. The
// result equals a decode without prev, but shares strings and attributes
// with it.
func decodeDiscoverResult(d *wire.Decoder, prev []jxta.Advertisement) (discoverResult, error) {
	n := d.Uint64()
	if err := d.Err(); err != nil {
		return discoverResult{}, err
	}
	if n > uint64(d.Remaining()/jxta.MinEncodedLen) {
		return discoverResult{}, fmt.Errorf("%w: %d advertisements exceed remaining %d bytes", wire.ErrCorrupt, n, d.Remaining())
	}
	m := discoverResult{}
	if n > 0 {
		m.Advs = make([]jxta.Advertisement, 0, n)
	}
	dd := jxta.NewDirDecoder(prev)
	for i := uint64(0); i < n; i++ {
		a, err := dd.Decode(d)
		if err != nil {
			return discoverResult{}, err
		}
		m.Advs = append(m.Advs, a)
	}
	return m, d.Finish()
}

func decodeSelectReq(d *wire.Decoder) (selectReq, error) {
	m := selectReq{
		Model:      d.StringField(),
		Kind:       d.Byte(),
		SizeBytes:  d.Int(),
		WorkUnits:  d.Float64(),
		MaxResults: d.Int(),
		Preferred:  d.StringSlice(),
		Exclude:    d.StringSlice(),
	}
	return m, d.Finish()
}

func decodeSelectResult(d *wire.Decoder) (selectResult, error) {
	m := selectResult{Peers: d.StringSlice(), Addrs: d.StringSlice(), Err: d.StringField()}
	return m, d.Finish()
}

func decodeReportTransfer(d *wire.Decoder) (reportTransfer, error) {
	m := reportTransfer{
		Peer:          d.StringField(),
		OK:            d.Bool(),
		Cancelled:     d.Bool(),
		Bytes:         d.Int(),
		Duration:      d.Duration(),
		PetitionDelay: d.Duration(),
	}
	return m, d.Finish()
}

func decodePieceReport(d *wire.Decoder) (pieceReport, error) {
	m := pieceReport{Peer: d.StringField()}
	n := d.Int()
	if err := d.Err(); err != nil {
		return pieceReport{}, err
	}
	if n < 0 {
		return pieceReport{}, fmt.Errorf("overlay: piece report with %d pieces", n)
	}
	for i := 0; i < n; i++ {
		m.Have = append(m.Have, d.Int())
	}
	m.Unchoked = d.StringSlice()
	return m, d.Finish()
}

func decodeReportTask(d *wire.Decoder) (reportTask, error) {
	m := reportTask{
		Peer:           d.StringField(),
		Accepted:       d.Bool(),
		OK:             d.Bool(),
		SecondsPerUnit: d.Float64(),
	}
	return m, d.Finish()
}

func decodeReportMessage(d *wire.Decoder) (reportMessage, error) {
	m := reportMessage{Peer: d.StringField(), OK: d.Bool()}
	return m, d.Finish()
}

func decodeTaskSubmit(d *wire.Decoder) (taskSubmit, error) {
	m := taskSubmit{
		Task: task.Task{
			ID:        d.Uint64(),
			Name:      d.StringField(),
			WorkUnits: d.Float64(),
			InputSize: d.Int(),
		},
		From: d.StringField(),
	}
	return m, d.Finish()
}

func decodeTaskDecision(d *wire.Decoder) (taskDecision, error) {
	m := taskDecision{TaskID: d.Uint64(), Accepted: d.Bool(), Reason: d.StringField()}
	return m, d.Finish()
}

func decodeTaskDone(d *wire.Decoder) (taskDone, error) {
	m := taskDone{Result: task.Result{
		TaskID:  d.Uint64(),
		OK:      d.Bool(),
		Detail:  d.StringField(),
		Elapsed: d.Duration(),
		Peer:    d.StringField(),
	}}
	return m, d.Finish()
}

func decodeInstant(d *wire.Decoder) (instant, error) {
	m := instant{From: d.StringField(), Text: d.StringField()}
	return m, d.Finish()
}

// kindOf strips the type tag.
func kindOf(payload []byte) (byte, *wire.Decoder, error) {
	d := wire.NewDecoder(payload)
	k := d.Byte()
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("overlay: %w", err)
	}
	return k, d, nil
}
