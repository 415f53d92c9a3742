package openmeta

import (
	"context"
	"time"

	"openmeta/internal/core"
	"openmeta/internal/discovery"
	"openmeta/internal/eventbus"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/xdr"
	"openmeta/internal/xmlschema"
	"openmeta/internal/xmlwire"
)

// Core types, re-exported so applications depend on one import path.
type (
	// Arch describes a machine architecture (byte order, C type sizes,
	// alignment); formats are laid out for an Arch.
	Arch = machine.Arch
	// Context owns the catalog of registered formats.
	Context = pbio.Context
	// Format is a registered message format.
	Format = pbio.Format
	// FormatID is the compact wire identifier of a format.
	FormatID = pbio.FormatID
	// Record is a dynamically typed record value for discovered formats.
	Record = pbio.Record
	// Binding pairs a Format with a Go struct type.
	Binding = pbio.Binding
	// FormatSet is the result of registering one schema document.
	FormatSet = core.FormatSet
	// Schema is a parsed XML Schema metadata document.
	Schema = xmlschema.Schema
	// Repository stores schema documents for remote discovery.
	Repository = discovery.Repository
	// DiscoveryClient fetches schema documents from a repository.
	DiscoveryClient = discovery.Client
	// DiscoverySource is one way of finding metadata by name.
	DiscoverySource = discovery.Source
	// Resolver chains discovery sources with fallback.
	Resolver = discovery.Resolver
	// SchemaWatcher polls a discovery source and reports schema changes.
	SchemaWatcher = discovery.Watcher
	// SchemaUpdate is one change notification from a SchemaWatcher.
	SchemaUpdate = discovery.Update
	// Publisher publishes records onto backbone streams.
	Publisher = eventbus.Publisher
	// Subscriber receives records from backbone streams.
	Subscriber = eventbus.Subscriber
)

// Predefined architectures. NativeArch is the profile used when encoding on
// this machine; ArchSparc simulates a heterogeneous peer.
var (
	NativeArch = machine.Native
	ArchSparc  = machine.Sparc
)

// RegisterSchema binds a parsed schema's types to the context architecture
// and registers them (the xml2wire pipeline).
func RegisterSchema(ctx *Context, s *Schema) (*FormatSet, error) {
	return core.RegisterSchema(ctx, s)
}

// RegisterSchemaDocument parses and registers schema text.
func RegisterSchemaDocument(ctx *Context, doc string) (*FormatSet, error) {
	return core.RegisterDocument(ctx, []byte(doc))
}

// MarshalFormatMeta serializes a format (and its nested dependencies) for
// transmission to peers.
func MarshalFormatMeta(f *Format) []byte { return pbio.MarshalMeta(f) }

// UnmarshalFormatMeta reconstructs a format received from a peer.
func UnmarshalFormatMeta(data []byte) (*Format, error) { return pbio.UnmarshalMeta(data) }

// NewWireWriter returns a record writer over a byte stream that transmits
// each format's metadata once.
func NewWireWriter(w interface{ Write([]byte) (int, error) }) *pbio.Writer {
	return pbio.NewWriter(w)
}

// NewWireReader returns a record reader that adopts incoming formats into
// ctx.
func NewWireReader(r interface{ Read([]byte) (int, error) }, ctx *Context) *pbio.Reader {
	return pbio.NewReader(r, ctx)
}

// NewRepository returns an empty metadata repository; serve it with
// (*Repository).Handler and net/http.
func NewRepository() *Repository { return discovery.NewRepository() }

// NewDiscoveryClient returns a caching client for a repository base URL.
func NewDiscoveryClient(baseURL string) (*DiscoveryClient, error) {
	return discovery.NewClient(baseURL)
}

// NewResolver chains discovery sources, primary first, with fallback — the
// remote-then-compiled-in pattern of the paper's fault-tolerance design.
func NewResolver(sources ...DiscoverySource) *Resolver {
	return discovery.NewResolver(sources...)
}

// StaticSchemas builds a compiled-in discovery source from name -> schema
// document text.
func StaticSchemas(docs map[string]string) DiscoverySource {
	return discovery.StaticSource(docs)
}

// DiscoverAndRegister resolves a format name through a discovery source and
// registers the schema's types.
func DiscoverAndRegister(ctx context.Context, src DiscoverySource, pctx *Context, name string) (*FormatSet, error) {
	s, err := src.Schema(ctx, name)
	if err != nil {
		return nil, err
	}
	return core.RegisterSchema(pctx, s)
}

// WatchSchemas polls a discovery source for schema changes; add names with
// Add and drain Updates. Close when done.
func WatchSchemas(src DiscoverySource, interval time.Duration) *SchemaWatcher {
	return discovery.NewWatcher(src, interval)
}

// DialPublisher connects a publisher to a broker.
func DialPublisher(addr string) (*Publisher, error) {
	return eventbus.DialPublisher(addr)
}

// DialSubscriber connects a subscriber to a broker, adopting stream formats
// into ctx.
func DialSubscriber(addr string, ctx *Context) (*Subscriber, error) {
	return eventbus.DialSubscriber(addr, ctx)
}

// EncodeXDR marshals a record in canonical XDR (RFC 1014) — the baseline
// wire format the paper compares against.
func EncodeXDR(f *Format, rec Record) ([]byte, error) { return xdr.EncodeRecord(f, rec) }

// EncodeXMLText marshals a record as an XML text message — the wire format
// of XML-RPC-era systems, provided as the measured baseline.
func EncodeXMLText(f *Format, rec Record) ([]byte, error) { return xmlwire.EncodeRecord(f, rec) }
