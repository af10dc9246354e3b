//! Hash-chained blocks, one per settled trading window.

use serde::{Deserialize, Serialize};

use pem_crypto::sha256;

use crate::contract::SettlementContract;
use crate::error::LedgerError;
use crate::tx::{SettlementTx, TransferTx};

/// A block: one trading window's settled transactions, or one coupling
/// round's inter-shard transfers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Position in the chain (genesis = 0).
    pub index: u64,
    /// Trading window this block settles.
    pub window: u64,
    /// Clearing price of the window (milli-cents/kWh, fixed point). For
    /// a coupling block this is the corridor price.
    pub price_mc: u64,
    /// Hash of the previous block.
    pub prev_hash: [u8; 32],
    /// The settled peer-to-peer transactions.
    pub txs: Vec<SettlementTx>,
    /// Inter-shard coupling transfers settled by this block (empty for
    /// ordinary trading blocks).
    pub transfers: Vec<TransferTx>,
    /// This block's hash (over all fields above).
    pub hash: [u8; 32],
}

impl Block {
    /// Computes the canonical hash of the block contents.
    ///
    /// The transfer section is folded in only when present, so blocks
    /// without transfers (everything appended by pre-coupling code)
    /// hash exactly as they did before the section existed — the chain
    /// format is backward-compatible. Injectivity is preserved: the tx
    /// region is delimited by its own length prefix, and a non-empty
    /// transfer section always starts with a domain tag no tx encoding
    /// can produce inside its region.
    pub fn compute_hash(
        index: u64,
        window: u64,
        price_mc: u64,
        prev_hash: &[u8; 32],
        txs: &[SettlementTx],
        transfers: &[TransferTx],
    ) -> [u8; 32] {
        let mut buf = Vec::with_capacity(64 + (txs.len() + transfers.len()) * 32);
        buf.extend_from_slice(b"pem-block-v1");
        buf.extend_from_slice(&index.to_be_bytes());
        buf.extend_from_slice(&window.to_be_bytes());
        buf.extend_from_slice(&price_mc.to_be_bytes());
        buf.extend_from_slice(prev_hash);
        buf.extend_from_slice(&(txs.len() as u64).to_be_bytes());
        for tx in txs {
            tx.encode(&mut buf);
        }
        if !transfers.is_empty() {
            buf.extend_from_slice(b"pem-transfers-v1");
            buf.extend_from_slice(&(transfers.len() as u64).to_be_bytes());
            for t in transfers {
                t.encode(&mut buf);
            }
        }
        sha256(&buf)
    }

    /// `true` if the stored hash matches the contents.
    pub fn hash_is_valid(&self) -> bool {
        Block::compute_hash(
            self.index,
            self.window,
            self.price_mc,
            &self.prev_hash,
            &self.txs,
            &self.transfers,
        ) == self.hash
    }

    /// The clearing price in ¢/kWh.
    pub fn price(&self) -> f64 {
        self.price_mc as f64 / 1e3
    }
}

/// The settlement chain: contract-validated, hash-linked blocks.
#[derive(Debug, Clone)]
pub struct Ledger {
    contract: SettlementContract,
    blocks: Vec<Block>,
}

impl Ledger {
    /// Creates a ledger with a genesis block.
    pub fn new(contract: SettlementContract) -> Ledger {
        let genesis_hash = Block::compute_hash(0, 0, 0, &[0u8; 32], &[], &[]);
        let genesis = Block {
            index: 0,
            window: 0,
            price_mc: 0,
            prev_hash: [0u8; 32],
            txs: Vec::new(),
            transfers: Vec::new(),
            hash: genesis_hash,
        };
        Ledger {
            contract,
            blocks: vec![genesis],
        }
    }

    /// The contract in force.
    pub fn contract(&self) -> &SettlementContract {
        &self.contract
    }

    /// All blocks (genesis first).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The newest block (genesis on a fresh ledger).
    pub fn tip(&self) -> &Block {
        // `new` pushes genesis and nothing removes a block.
        &self.blocks[self.blocks.len() - 1]
    }

    /// Number of settled windows (excludes genesis).
    pub fn settled_windows(&self) -> usize {
        self.blocks.len() - 1
    }

    /// Validates and appends a window's transactions as a new block.
    ///
    /// # Errors
    ///
    /// Contract violations ([`LedgerError`]) leave the chain unchanged.
    pub fn append_window(
        &mut self,
        window: u64,
        price: f64,
        txs: &[SettlementTx],
    ) -> Result<&Block, LedgerError> {
        self.append(window, price, txs, &[], |contract, price| {
            contract.validate_window(price, txs)
        })
    }

    /// Validates and appends a coupling round's inter-shard transfers as
    /// a new block at the corridor price.
    ///
    /// # Errors
    ///
    /// Contract violations ([`LedgerError`]) leave the chain unchanged.
    pub fn append_coupling(
        &mut self,
        window: u64,
        corridor: f64,
        transfers: &[TransferTx],
    ) -> Result<&Block, LedgerError> {
        self.append(window, corridor, &[], transfers, |contract, corridor| {
            contract.validate_transfers(corridor, transfers)
        })
    }

    /// Appends one block after the window-order check and `validate`,
    /// the caller's contract check.
    fn append(
        &mut self,
        window: u64,
        price: f64,
        txs: &[SettlementTx],
        transfers: &[TransferTx],
        validate: impl FnOnce(&SettlementContract, f64) -> Result<(), LedgerError>,
    ) -> Result<&Block, LedgerError> {
        let last = self.tip();
        if self.blocks.len() > 1 && window <= last.window {
            return Err(LedgerError::NonMonotonicWindow {
                last: last.window,
                got: window,
            });
        }
        let (index, prev_hash) = (last.index + 1, last.hash);
        // Validate against the price as it will be *stored* (milli-cent
        // fixed point), so a later `validate()` — which only sees
        // `block.price()` — reaches the same verdict. A raw float
        // corridor off the milli-cent grid would otherwise pass here and
        // fail re-validation once its per-leg payment error exceeds the
        // tolerance (the error grows with energy, the tolerance doesn't).
        let price_mc = (price * 1e3).round() as u64;
        validate(&self.contract, price_mc as f64 / 1e3)?;
        let hash = Block::compute_hash(index, window, price_mc, &prev_hash, txs, transfers);
        self.blocks.push(Block {
            index,
            window,
            price_mc,
            prev_hash,
            txs: txs.to_vec(),
            transfers: transfers.to_vec(),
            hash,
        });
        Ok(self.tip())
    }

    /// Re-validates the whole chain (hashes, links, indices, contract).
    ///
    /// # Errors
    ///
    /// The first violation found, if any.
    pub fn validate(&self) -> Result<(), LedgerError> {
        for (i, block) in self.blocks.iter().enumerate() {
            if block.index != i as u64 {
                return Err(LedgerError::BadIndex {
                    expected: i as u64,
                    found: block.index,
                });
            }
            if !block.hash_is_valid() {
                return Err(LedgerError::BrokenHash { block: block.index });
            }
            if i > 0 {
                if block.prev_hash != self.blocks[i - 1].hash {
                    return Err(LedgerError::BrokenChain { block: block.index });
                }
                if !block.txs.is_empty() || block.transfers.is_empty() {
                    self.contract.validate_window(block.price(), &block.txs)?;
                }
                if !block.transfers.is_empty() {
                    self.contract
                        .validate_transfers(block.price(), &block.transfers)?;
                }
            }
        }
        Ok(())
    }

    /// Total energy settled on the chain (kWh).
    pub fn total_energy(&self) -> f64 {
        self.blocks
            .iter()
            .flat_map(|b| b.txs.iter())
            .map(|t| t.energy_kwh())
            .sum()
    }

    /// Total money settled on the chain (cents).
    pub fn total_payments(&self) -> f64 {
        self.blocks
            .iter()
            .flat_map(|b| b.txs.iter())
            .map(|t| t.payment_cents())
            .sum()
    }

    /// Total inter-shard energy moved by coupling blocks (kWh).
    pub fn total_transfer_energy(&self) -> f64 {
        self.blocks
            .iter()
            .flat_map(|b| b.transfers.iter())
            .map(|t| t.energy_kwh())
            .sum()
    }

    /// Number of coupling blocks on the chain.
    pub fn coupling_blocks(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| !b.transfers.is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pem_market::PriceBand;

    fn ledger() -> Ledger {
        Ledger::new(SettlementContract::new(PriceBand::paper_defaults()))
    }

    fn tx(seller: usize, buyer: usize, kwh: f64, price: f64) -> SettlementTx {
        SettlementTx::new(0, seller, buyer, kwh, price)
    }

    #[test]
    fn genesis_is_valid() {
        let l = ledger();
        assert_eq!(l.settled_windows(), 0);
        l.validate().expect("genesis chain valid");
    }

    #[test]
    fn append_and_validate() {
        let mut l = ledger();
        l.append_window(5, 100.0, &[tx(0, 1, 1.5, 100.0), tx(0, 2, 0.5, 100.0)])
            .expect("append");
        l.append_window(6, 90.0, &[tx(3, 1, 2.0, 90.0)])
            .expect("append");
        assert_eq!(l.settled_windows(), 2);
        l.validate().expect("chain valid");
        assert!((l.total_energy() - 4.0).abs() < 1e-9);
        assert!((l.total_payments() - (150.0 + 50.0 + 180.0)).abs() < 1e-6);
    }

    #[test]
    fn tamper_with_tx_detected() {
        let mut l = ledger();
        l.append_window(1, 100.0, &[tx(0, 1, 1.0, 100.0)])
            .expect("append");
        // An attacker bumps their received energy after the fact.
        l.blocks[1].txs[0].energy_ukwh += 1;
        assert_eq!(l.validate(), Err(LedgerError::BrokenHash { block: 1 }));
    }

    #[test]
    fn tamper_with_link_detected() {
        let mut l = ledger();
        l.append_window(1, 100.0, &[tx(0, 1, 1.0, 100.0)])
            .expect("append");
        l.append_window(2, 100.0, &[tx(0, 1, 1.0, 100.0)])
            .expect("append");
        // Rewrite block 1 entirely (valid hash, broken link downstream).
        let new_txs = vec![tx(0, 1, 9.0, 100.0)];
        let b = &l.blocks[1];
        let hash = Block::compute_hash(b.index, b.window, b.price_mc, &b.prev_hash, &new_txs, &[]);
        l.blocks[1].txs = new_txs;
        l.blocks[1].hash = hash;
        assert_eq!(l.validate(), Err(LedgerError::BrokenChain { block: 2 }));
    }

    #[test]
    fn rejects_out_of_order_windows() {
        let mut l = ledger();
        l.append_window(7, 100.0, &[tx(0, 1, 1.0, 100.0)])
            .expect("append");
        assert!(matches!(
            l.append_window(7, 100.0, &[tx(0, 1, 1.0, 100.0)]),
            Err(LedgerError::NonMonotonicWindow { .. })
        ));
        assert_eq!(l.settled_windows(), 1, "failed append must not grow chain");
    }

    #[test]
    fn rejects_out_of_order_coupling_rounds() {
        let mut l = ledger();
        l.append_window(7, 100.0, &[tx(0, 1, 1.0, 100.0)])
            .expect("append");
        let tip = l.tip().clone();
        assert_eq!(
            l.append_coupling(6, 98.0, &[TransferTx::new(0, 2, 1.5, 98.0)])
                .map(|b| b.index),
            Err(LedgerError::NonMonotonicWindow { last: 7, got: 6 })
        );
        assert_eq!(l.settled_windows(), 1, "failed append must not grow chain");
        assert_eq!(l.tip(), &tip);
    }

    #[test]
    fn coupling_blocks_append_and_validate() {
        let mut l = ledger();
        l.append_window(1, 100.0, &[tx(0, 1, 1.0, 100.0)])
            .expect("trading block");
        let transfers = [
            TransferTx::new(0, 2, 1.5, 98.0),
            TransferTx::new(1, 3, 0.25, 98.0),
        ];
        l.append_coupling(2, 98.0, &transfers).expect("coupling");
        assert_eq!(l.settled_windows(), 2);
        assert_eq!(l.coupling_blocks(), 1);
        assert!((l.total_transfer_energy() - 1.75).abs() < 1e-9);
        l.validate().expect("chain valid");
        // Tampering with a transfer breaks the hash.
        l.blocks[2].transfers[0].energy_ukwh += 1;
        assert_eq!(l.validate(), Err(LedgerError::BrokenHash { block: 2 }));
    }

    #[test]
    fn accepted_blocks_always_revalidate() {
        // Regression: a corridor off the milli-cent grid (an arbitrary
        // VWAP) with a coalition-scale leg. Validation must use the
        // *stored* (rounded) price, so append and re-validation agree —
        // previously append accepted against the raw float and
        // `validate()` then rejected its own chain with PaymentMismatch.
        let corridor = 100.0004999;
        let mut l = ledger();
        let transfers = [TransferTx::new(0, 1, 100.0, 100.0)];
        match l.append_coupling(1, corridor, &transfers) {
            Ok(_) => l.validate().expect("accepted chain must revalidate"),
            Err(e) => panic!("mc-consistent batch rejected: {e}"),
        }
        // Same contract for trading blocks.
        let mut l = ledger();
        let txs = [tx(0, 1, 100.0, 100.0)];
        // Rejection is fine; acceptance-then-rejection is not.
        if l.append_window(1, corridor, &txs).is_ok() {
            l.validate().expect("accepted chain must revalidate");
        }
    }

    #[test]
    fn coupling_block_rejects_bad_corridor() {
        let mut l = ledger();
        let transfers = [TransferTx::new(0, 1, 1.0, 120.0)];
        assert!(matches!(
            l.append_coupling(1, 120.0, &transfers),
            Err(LedgerError::PriceOutOfBand { .. })
        ));
        assert_eq!(l.settled_windows(), 0, "failed append must not grow chain");
    }

    #[test]
    fn transfer_section_does_not_perturb_plain_hashes() {
        // A block without transfers must hash exactly as the
        // pre-transfer format did (backward compatibility of the chain).
        let txs = [tx(0, 1, 1.0, 100.0)];
        let with_empty = Block::compute_hash(1, 1, 100_000, &[7u8; 32], &txs, &[]);
        let mut legacy = Vec::new();
        legacy.extend_from_slice(b"pem-block-v1");
        legacy.extend_from_slice(&1u64.to_be_bytes());
        legacy.extend_from_slice(&1u64.to_be_bytes());
        legacy.extend_from_slice(&100_000u64.to_be_bytes());
        legacy.extend_from_slice(&[7u8; 32]);
        legacy.extend_from_slice(&1u64.to_be_bytes());
        txs[0].encode(&mut legacy);
        assert_eq!(with_empty, pem_crypto::sha256(&legacy));
        // And a non-empty section changes it.
        let t = [TransferTx::new(0, 1, 1.0, 100.0)];
        assert_ne!(
            with_empty,
            Block::compute_hash(1, 1, 100_000, &[7u8; 32], &txs, &t)
        );
    }

    #[test]
    fn deterministic_hashes() {
        let mut a = ledger();
        let mut b = ledger();
        a.append_window(1, 95.5, &[tx(0, 1, 1.25, 95.5)])
            .expect("append");
        b.append_window(1, 95.5, &[tx(0, 1, 1.25, 95.5)])
            .expect("append");
        assert_eq!(a.blocks()[1].hash, b.blocks()[1].hash);
    }
}
